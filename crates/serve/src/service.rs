//! Request handling: the hit ladder, the miss pipeline, and daemon
//! statistics.
//!
//! One [`Service`] is shared by every connection. A request line is
//! parsed and resolved — once: [`ResolveMemo::resolve`], the entry point of
//! the inline and the worker path alike, hands a byte-identical repeat of
//! a line that hit before the request it resolved to then, content hashes
//! included — and [`Service::hit`] probes the sharded cache; a hit is a
//! copy of the stored reply line. The memo holds the pure half of a hit
//! only: which tier answers, every counter and the cache's recency are
//! decided and booked per request, by the ladder. A miss walks **one
//! pipeline**, each step defined once:
//!
//! 1. **flight** ([`flight`]) — single-flight under the key; the leader
//!    re-`peek`s the cache under its slot, every identical concurrent
//!    request shares its answer;
//! 2. **envelope** ([`Service::guarded`]) — drain check, circuit breaker
//!    on the key, and after the computation the breaker's
//!    success/failure classification;
//! 3. **batch** — compatible concurrent misses gather into one group;
//! 4. **admission** ([`Service::admit`]) — one gate permit per batch (or
//!    per search); overload and shed rejections are booked here, once
//!    per refused *request*;
//! 5. **compute and account** ([`Service::run_cells`]) — one sweep on the
//!    panic-isolating pool, then per cell: cache put, `computed`,
//!    latency.
//!
//! Which steps a tier takes:
//!
//! | tier | flight table | envelope | batch | admission | compute |
//! |---|---|---|---|---|---|
//! | exact `simulate` | gated | yes | yes | per batch | `run_cells` |
//! | predicted `simulate` | ungated | – | – | – | the model, then a sampled audit |
//! | `tune` | tune | yes | – | one permit per search | the search; its cells are ungated sub-requests |
//! | sub-request (serial baseline, audit, exact tune cell) | ungated | – | – | – | `run_cells`, one cell |
//!
//! The serial baseline a parallel cell's speedup divides by is its *own*
//! cached sub-request (hashed under the serial variant of the spec),
//! fetched without re-entering the admission gate — a request that was
//! admitted owns enough budget for its own denominator, and gating it
//! again could deadlock a fully-loaded daemon.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use paxsim_core::error::{StudyError, StudyResult};
use paxsim_core::hash::{content_hash, fnv1a, ConfigHash, Fidelity, ResolvedSpec, StudySpec};
use paxsim_core::inflight::Inflight;
use paxsim_core::journal::{FsyncPolicy, Record, SideRecord};
use paxsim_core::pool::{self, CellPolicy};
use paxsim_core::sentinel::{MetricError, PredictAuditor};
use paxsim_core::single::run_trials_with;
use paxsim_core::store::TraceStore;
use paxsim_core::tune::{self, TunePlan, TuneRequest, TuneResult};
use paxsim_machine::sim::simulate;
use paxsim_obs::Tally;
use paxsim_perfmon::stats::{RunningSummary, Summary};
use paxsim_predict::{predict_program, Predicted, ProfileCache};
use serde::{Serialize, Value};

use crate::batch::Batcher;
use crate::breaker::Breaker;
use crate::cache::ResultCache;
use crate::protocol::{self, Line, ResolveMemo, Simulate};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory holding the on-disk cache tier.
    pub cache_dir: std::path::PathBuf,
    /// Memory-tier (LRU) capacity in records. It bounds the LRU's copies
    /// and their rendered reply lines, not the daemon's resident records:
    /// every journaled record also stays in the journal's in-memory index.
    pub mem_cap: usize,
    /// Concurrent cache-miss computations admitted.
    pub max_running: usize,
    /// Computations allowed to queue behind the running set before the
    /// daemon answers `overloaded`.
    pub max_queue: usize,
    /// Watchdog deadline applied to computations whose request did not
    /// set `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Result-cache shards (consistent-hashed by `ConfigHash`). More
    /// shards, less lock contention; entries relocate on change (a
    /// relocated entry misses once, it is never served wrong).
    pub shards: usize,
    /// Batch gather window in milliseconds. `0` disables batching
    /// (every miss executes immediately as a batch of one — the
    /// reference semantics the batched path is differentially tested
    /// against). Nonzero trades that many ms of cold-miss latency for
    /// merging compatible concurrent misses into one sweep.
    pub batch_window_ms: u64,
    /// Reactor compute-worker threads; `0` sizes automatically to
    /// `max_running + max_queue + 4` so cache hits keep flowing while
    /// every admission slot is occupied by blocked batch leaders.
    pub workers: usize,
    /// Fsync each cache-journal append (`FsyncPolicy::Fsync`). Default
    /// off: flush-to-OS survives a daemon kill; fsync additionally
    /// survives power loss at a disk round trip per record — and a lost
    /// record is only ever a recompute, never a wrong answer.
    pub fsync: bool,
    /// Circuit-breaker trip threshold: consecutive *post-retry* failures
    /// of one config before it is quarantined. `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped config stays quarantined before one probe
    /// request is let through.
    pub breaker_cooldown_ms: u64,
    /// Prediction-audit sampling period: after the always-audited first
    /// cold prediction of a (kernel, config, class) pair, every Nth
    /// fresh prediction of that pair is re-run on the cycle engine and
    /// its error measured against the declared bounds. `0` audits only
    /// the first.
    pub predict_sample_every: usize,
    /// The daemon's fault plan; every component it opens gets a clone.
    pub faults: paxsim_core::faultinject::Faults,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            cache_dir: std::path::PathBuf::from("paxsim-serve-cache"),
            mem_cap: 256,
            max_running: cores,
            max_queue: 2 * cores,
            default_deadline_ms: None,
            shards: crate::cache::DEFAULT_SHARDS,
            batch_window_ms: 0,
            workers: 0,
            fsync: false,
            breaker_threshold: 3,
            breaker_cooldown_ms: 5_000,
            predict_sample_every: 4,
            faults: Default::default(),
        }
    }
}

impl ServeConfig {
    /// Effective reactor worker-thread count (resolves the `0` default).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            self.max_running + self.max_queue + 4
        }
    }
}

// ---------------------------------------------------------------------------
// Admission gate.
// ---------------------------------------------------------------------------

struct GateState {
    running: usize,
    queued: usize,
}

/// Bounded running set plus bounded wait queue. Only cache-miss
/// computations pass through here — hits and stats are always served.
struct Gate {
    max_running: usize,
    max_queue: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

/// RAII running-set slot; dropping it wakes one queued waiter.
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        lock(&self.0.state).running -= 1;
        self.0.cv.notify_one();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Gate {
    fn new(max_running: usize, max_queue: usize) -> Gate {
        Gate {
            max_running: max_running.max(1),
            max_queue,
            state: Mutex::new(GateState {
                running: 0,
                queued: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Claim a running slot, queueing if the running set is full.
    ///
    /// A queued waiter with a `deadline` is **shed** the moment the
    /// deadline passes: by the time the slot would free, the compute
    /// watchdog would kill the work anyway, so running it only wastes
    /// the slot. Since every waiter sheds at its own deadline, the work
    /// with the *oldest* deadline leaves the queue first — the queue
    /// drains from most-doomed to least under sustained overload.
    ///
    /// Returns `Err(AdmitError::Full(..))` when the queue itself is
    /// full (immediate, never waits), `Err(AdmitError::Shed)` when the
    /// deadline expired while queued.
    fn admit(&self, deadline: Option<Instant>) -> Result<Permit<'_>, AdmitError> {
        let mut s = lock(&self.state);
        if s.running >= self.max_running {
            if s.queued >= self.max_queue {
                return Err(AdmitError::Full {
                    running: s.running,
                    queued: s.queued,
                });
            }
            s.queued += 1;
            while s.running >= self.max_running {
                match deadline {
                    None => s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner()),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            s.queued -= 1;
                            // A slot may have freed in the same instant;
                            // pass the wake-up on rather than eat it.
                            self.cv.notify_one();
                            return Err(AdmitError::Shed);
                        }
                        s = self
                            .cv
                            .wait_timeout(s, d - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                    }
                }
            }
            s.queued -= 1;
        }
        s.running += 1;
        Ok(Permit(self))
    }

    fn depth(&self) -> (usize, usize) {
        let s = lock(&self.state);
        (s.running, s.queued)
    }
}

/// Why [`Gate::admit`] refused a slot.
#[derive(Debug, PartialEq, Eq)]
enum AdmitError {
    /// Running set and queue both full at arrival.
    Full { running: usize, queued: usize },
    /// The request's deadline expired while it waited in the queue.
    Shed,
}

// ---------------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------------

/// Why a miss was answered with a typed error instead of a record.
/// The first four are the envelope's refusals of a flight that never
/// computed; they travel through the single-flight table and the batcher
/// so every rider of a refused flight sees the same rejection.
#[derive(Debug, Clone)]
enum Rejection {
    Overloaded {
        running: usize,
        queued: usize,
    },
    Draining,
    /// Deadline expired while queued for admission (load shedding).
    Shed,
    /// The config is circuit-broken after repeated deterministic
    /// failures; `retry_ms` is the remaining quarantine cooldown.
    Quarantined {
        retry_ms: u64,
    },
    /// The computation ran and failed.
    Failed(StudyError),
}

/// What a gated flight lands with: the pool's error, the envelope's
/// refusal, or the value.
type Gated<T> = StudyResult<Result<T, Rejection>>;

/// Everything a request touches, shared across connections.
pub struct Service {
    cfg: ServeConfig,
    store: TraceStore,
    cache: ResultCache,
    /// Request lines answered as hits before, already parsed and resolved.
    memo: ResolveMemo,
    /// Client-facing flights: one admission-gate pass per flight, shared
    /// by every identical concurrent request.
    inflight: Inflight<Result<Record, Rejection>>,
    /// Ungated flights: serial-baseline sub-requests, audits, tune cells
    /// and predicted-tier misses (predicted keys live in their own hash
    /// space, so the two never collide). A separate table from the gated
    /// one: a gated flight can block in the admission queue, and a
    /// permit-holding computation joining it there would deadlock. None
    /// of these flights passes the gate — model evaluation is
    /// microseconds, and gating it behind engine sweeps would invert the
    /// latency order the predicted tier exists for.
    sub_inflight: Inflight<Record>,
    /// Compatible concurrent misses gather here into shared sweeps; one
    /// admission-gate pass and one pool per batch.
    batcher: Batcher<ResolvedSpec, Gated<Record>>,
    gate: Gate,
    /// Quarantines configs that keep failing after the pool's own
    /// retries — a deterministic crasher stops burning worker time.
    breaker: Breaker,
    draining: AtomicBool,
    started: Instant,
    requests: Tally,
    /// `simulate` requests that reached a cache lookup (hits, misses,
    /// and gated rejections alike — each books exactly one cache-tier
    /// counter). This is the server-side left arm of the conservation
    /// law `hits + misses == simulate_requests + baseline_fetches`,
    /// robust to client-side retries the client never reports.
    simulates: Tally,
    computed: Tally,
    rejected_overload: Tally,
    rejected_draining: Tally,
    /// Queued computations shed because their deadline expired before a
    /// running slot freed.
    shed: Tally,
    /// Serial-baseline sub-requests performed (each books exactly one
    /// cache-tier counter, like every client request — conservation).
    baseline_fetches: Tally,
    /// Cold-miss compute latency in milliseconds, per kernel.
    latencies: Mutex<HashMap<String, RunningSummary>>,
    /// The sentinel prediction auditor: samples fresh predictions,
    /// re-runs them on the cycle engine, quarantines out-of-bound
    /// (kernel, config, class) pairs.
    auditor: PredictAuditor,
    /// Predicted-tier records computed (cold predictions, not hits).
    predicted_served: Tally,
    /// Reuse profiles of the regions the predicted tier has modelled.
    profiles: ProfileCache,
    /// Model-evaluation latency in milliseconds (predicted tier only;
    /// excludes the content-addressed profile extraction it amortizes).
    predict_latencies: Mutex<RunningSummary>,
    /// Single-flight table for tune searches. Like the predicted tier:
    /// its own table (a search takes seconds and must not block exact
    /// flights) and never batched — the search decides its own
    /// evaluation order.
    tune_inflight: Inflight<Result<TuneResult, Rejection>>,
    /// `tune` requests that reached the result-cache replay.
    tunes: Tally,
    /// Tune requests answered by a replay over the result cache.
    tune_hits: Tally,
    /// Searches that ran to completion this process.
    tune_completed: Tally,
    /// Searches that found at least one cell in the result cache.
    tune_resumes: Tally,
    /// Search cells found in the result cache / computed by the search.
    tune_replayed: Tally,
    tune_fresh: Tally,
    /// Kept by the socket front end ([`Server`](crate::server::Server)) as
    /// connections open and close and jobs enter and leave the worker
    /// pool's queue; `op=metrics` publishes them (a blocked reactor has no
    /// tick to do it on).
    pub(crate) open_connections: AtomicUsize,
    pub(crate) queued_jobs: AtomicUsize,
}

impl Service {
    /// Open the cache and stand the service up.
    ///
    /// # Errors
    ///
    /// Cache-journal I/O errors (unreadable directory, bad permissions).
    pub fn open(cfg: ServeConfig) -> StudyResult<Service> {
        // The daemon runs with observability on unless explicitly opted
        // out (PAXSIM_OBS=0): a `metrics` scrape against a fresh daemon
        // must work without extra environment plumbing. Replies are
        // cache-journal records either way, so determinism is untouched.
        if std::env::var_os("PAXSIM_OBS").is_none_or(|v| v != "0") {
            paxsim_obs::set_enabled(true);
        }
        let policy = if cfg.fsync {
            FsyncPolicy::Fsync
        } else {
            FsyncPolicy::Flush
        };
        let (dir, faults) = (&cfg.cache_dir, &cfg.faults);
        let cache = ResultCache::open_with(dir, cfg.mem_cap, cfg.shards, policy, faults.clone())?;
        let gate = Gate::new(cfg.max_running, cfg.max_queue);
        let batcher = Batcher::new(Duration::from_millis(cfg.batch_window_ms));
        let breaker = Breaker::new(
            cfg.breaker_threshold,
            Duration::from_millis(cfg.breaker_cooldown_ms),
        );
        let auditor = PredictAuditor::new(cfg.predict_sample_every);
        Ok(Service {
            store: TraceStore::with_faults(faults.clone()),
            cfg,
            cache,
            memo: ResolveMemo::new(),
            inflight: Inflight::new("serve.flight.led", "serve.flight.joined"),
            sub_inflight: Inflight::new("serve.sub_flight.led", "serve.sub_flight.joined"),
            batcher,
            gate,
            breaker,
            draining: AtomicBool::new(false),
            started: Instant::now(),
            requests: Tally::new("serve.requests"),
            simulates: Tally::new("serve.simulate_requests"),
            computed: Tally::new("serve.computed"),
            rejected_overload: Tally::new("serve.admission.rejected_overload"),
            rejected_draining: Tally::new("serve.admission.rejected_draining"),
            shed: Tally::new("serve.admission.shed"),
            baseline_fetches: Tally::new("serve.baseline_fetches"),
            latencies: Mutex::new(HashMap::new()),
            auditor,
            predicted_served: Tally::new("serve.predict.served"),
            profiles: ProfileCache::default(),
            predict_latencies: Mutex::default(),
            tune_inflight: Inflight::new("serve.tune_flight.led", "serve.tune_flight.joined"),
            tunes: Tally::new("serve.tune.requests"),
            tune_hits: Tally::new("serve.tune.hits"),
            tune_completed: Tally::new("serve.tune.completed"),
            tune_resumes: Tally::new("serve.tune.resumes"),
            tune_replayed: Tally::new("serve.tune.replayed_cells"),
            tune_fresh: Tally::new("serve.tune.fresh_cells"),
            open_connections: AtomicUsize::new(0),
            queued_jobs: AtomicUsize::new(0),
        })
    }

    /// Handle one request line, returning one reply line (no trailing
    /// newline). Never panics on client input.
    pub fn handle_line(&self, line: &str) -> String {
        self.requests.inc();
        let _span = paxsim_obs::span!("serve.request");
        let (request, memoized) = self.memo.resolve(line);
        ResolveMemo::book(memoized);
        match request {
            Ok(Line::Stats) => self.stats_reply(),
            Ok(Line::Metrics) => self.metrics_reply(),
            Ok(Line::Health) => self.health_reply(),
            Ok(Line::Simulate(request)) => self
                .ladder(line, &request, memoized)
                .unwrap_or_else(|miss| self.miss(&request, miss)),
            Ok(Line::Tune { req, deadline_ms }) => self
                .tune(&req, deadline_ms)
                .unwrap_or_else(Self::render_rejection),
            Err(e) => protocol::render_error(protocol::error_category(&e), &e.to_string()),
        }
    }

    /// Render a typed rejection as its protocol error line.
    fn render_rejection(rej: Rejection) -> String {
        match rej {
            Rejection::Overloaded { running, queued } => protocol::render_error(
                "overloaded",
                &format!("{running} computations running, {queued} queued; try again"),
            ),
            Rejection::Draining => protocol::render_error("draining", "daemon is shutting down"),
            Rejection::Shed => protocol::render_error(
                "shed",
                "deadline expired while queued for admission; daemon under load",
            ),
            Rejection::Quarantined { retry_ms } => protocol::render_error(
                "quarantined",
                &format!(
                    "config is circuit-broken after repeated failures; \
                     retry in {retry_ms} ms"
                ),
            ),
            Rejection::Failed(e) => {
                protocol::render_error(protocol::error_category(&e), &e.to_string())
            }
        }
    }

    /// Reactor fast path: answer `line` inline **iff** it is a
    /// `simulate` request whose result is already cached. Anything else
    /// — a miss, `stats`/`metrics`, malformed input — returns `None`
    /// and must be dispatched to the worker pool as usual.
    ///
    /// Serving hits on the reactor thread skips the pool round trip: two
    /// thread wakes, which cost many times the whole hit — the hit being
    /// a memo lookup (parse, resolve and one streamed hash per key, the
    /// first time a line hits), a probe and a copy of the stored reply
    /// line. The line is resolved by the same [`ResolveMemo::resolve`] and
    /// the reply comes out of the same [`Service::ladder`] as on the worker
    /// path, so the two are byte-identical and book alike.
    ///
    /// Accounting matches [`Service::handle_line`] exactly: the request
    /// counter moves only when the request is actually answered here,
    /// and the ladder books a hit counter on success and *nothing* on a
    /// miss — the worker path books that miss when it walks the ladder
    /// itself, so every simulate request still books exactly one tier
    /// counter.
    pub fn try_hit(&self, line: &str) -> Option<String> {
        let (Ok(Line::Simulate(request)), memoized) = self.memo.resolve(line) else {
            return None;
        };
        let reply = self.ladder(line, &request, memoized).ok()?;
        ResolveMemo::book(memoized);
        static INLINE: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("serve.inline_hits");
        self.requests.inc();
        INLINE.inc();
        let _span = paxsim_obs::span!("serve.request");
        Some(reply)
    }

    /// Walk the hit ladder for the request `line` resolved to, and let a
    /// line that was answered from the cache into the memo. Only such
    /// lines enter: a stream of never-seen requests leaves the memo alone.
    fn ladder(&self, line: &str, request: &Arc<Simulate>, memoized: bool) -> Result<String, Miss> {
        let answer = self.hit(&request.resolved, request.fidelity);
        if answer.is_ok() && !memoized {
            self.memo.admit(line, request);
        }
        answer
    }

    /// The hit ladder, walked once per `simulate` request by the
    /// reactor's inline path and by the worker path alike. Each key is
    /// hashed once per resolved request (a memoized line's never again),
    /// each tier probed once, and a hit copies the reply line its cache
    /// entry stores instead of rendering the record. Everything with state
    /// is here and runs on every request — the quarantine check, the tier
    /// choice, the probe's recency, promotion and counters — whether or
    /// not the memo supplied the request.
    ///
    /// Which tier answers: `exact` — and any request for a quarantined
    /// (kernel, config, class) pair, which must reply byte-identical to
    /// an exact request — looks only in the exact key space; `fast`
    /// prefers a cached exact answer (a better answer at the same
    /// latency) and otherwise shares the predicted key space with
    /// `predicted`.
    ///
    /// A probe books a tier counter only when it hits, so the ladder
    /// books exactly one per answered request — the right-hand side of
    /// the conservation law moves with it — and nothing on a miss: the
    /// reactor drops the [`Miss`] and dispatches the line, the worker
    /// path hands it to [`Service::miss`].
    fn hit(&self, resolved: &ResolvedSpec, fidelity: Fidelity) -> Result<String, Miss> {
        let spec = &resolved.spec;
        let quarantined =
            fidelity != Fidelity::Exact && self.auditor.is_quarantined(pair_key(spec));
        let exact_only = fidelity == Fidelity::Exact || quarantined;
        let probe = |hash| {
            self.cache
                .probe_reply(hash, |rec| protocol::render_body(hash, spec, rec))
        };
        let miss = |hash, predicted| Miss {
            hash,
            predicted,
            quarantined,
        };
        if exact_only || fidelity == Fidelity::Fast {
            let hash = resolved.content_hash();
            if let Some(body) = probe(hash) {
                self.book_simulate(quarantined);
                return Ok(protocol::close(&body));
            }
            if exact_only {
                return Err(miss(hash, false));
            }
        }
        let hash = resolved.content_hash_with_fidelity(Fidelity::Predicted);
        let body = probe(hash).ok_or_else(|| miss(hash, true))?;
        self.book_simulate(quarantined);
        Ok(protocol::close_predicted(&body, fidelity))
    }

    /// One `simulate` request is being answered, hit or miss: the
    /// server-side arm of the conservation law, and the fallback count
    /// when a quarantined pair sent it to the exact tier.
    fn book_simulate(&self, quarantined: bool) {
        self.simulates.inc();
        if quarantined {
            self.auditor.record_fallback();
        }
    }

    /// Answer a request the hit ladder missed: book the miss its probes
    /// left unbooked, compute in the tier — and under the key — the
    /// ladder settled on, and render the fresh record the way a later
    /// hit will.
    fn miss(&self, request: &Simulate, miss: Miss) -> String {
        let resolved = &request.resolved;
        self.book_simulate(miss.quarantined);
        self.cache.book_miss(miss.hash);
        let computed = if miss.predicted {
            self.predicted_flight(resolved, miss.hash)
        } else {
            self.exact_flight(resolved, miss.hash, request.deadline_ms)
        };
        let body = match computed {
            Ok(rec) => protocol::render_body(miss.hash, &resolved.spec, &rec),
            Err(rej) => return Self::render_rejection(rej),
        };
        if miss.predicted {
            protocol::close_predicted(&body, request.fidelity)
        } else {
            protocol::close(&body)
        }
    }

    /// Compute one exact-tier miss under `hash`: a coalesced flight
    /// whose *leader* passes the envelope and hands the miss to the
    /// batcher — identical concurrent requests cost one flight, and
    /// compatible distinct ones share a sweep and a gate permit.
    ///
    /// The request booked its one cache-tier counter (a miss) before it
    /// got here; everything below must stay counter-neutral so the
    /// conservation law `hits + misses == simulate requests + baseline
    /// fetches` holds even when a flight is cancelled by its deadline
    /// mid-coalesce.
    fn exact_flight(
        &self,
        resolved: &ResolvedSpec,
        hash: ConfigHash,
        deadline_ms: Option<u64>,
    ) -> Result<Record, Rejection> {
        let peek = || self.cache.peek(hash).map(Ok);
        let result = flight(&self.inflight, hash.0, peek, || {
            let _span = paxsim_obs::span!("serve.flight", kernel = resolved.spec.kernel);
            self.guarded(hash.0, || self.batched_compute(resolved, deadline_ms))
        });
        settle(result)
    }

    /// The envelope around every gated computation (an exact flight, a
    /// tune search), run by the flight's leader: refuse while draining,
    /// refuse a quarantined key, and tell the breaker how `compute` went.
    ///
    /// The breaker check sits after the cache (the flight re-`peek`ed it
    /// before calling this): a quarantined config's *cached* result — from
    /// before it went bad, or from a successful probe — still serves; only
    /// fresh compute is refused.
    fn guarded<T>(&self, key: u64, compute: impl FnOnce() -> Gated<T>) -> Gated<T> {
        if self.draining() {
            self.rejected_draining.inc();
            return Ok(Err(Rejection::Draining));
        }
        if let Err(retry_ms) = self.breaker.check(key) {
            return Ok(Err(Rejection::Quarantined { retry_ms }));
        }
        let res = compute();
        match &res {
            Ok(Ok(_)) => self.breaker.success(key),
            // Gate rejections say nothing about the config itself.
            Ok(Err(_)) => {}
            // Only failures that survived the pool's own retry budget and
            // look config-caused count toward a trip: a panic or a failed
            // trace build, not a deadline the client chose.
            Err(StudyError::CellPanicked { .. }) | Err(StudyError::BuildFailed { .. }) => {
                self.breaker.failure(key);
            }
            Err(_) => {}
        }
        res
    }

    /// The watchdog deadline of a computation: the request's own, else
    /// the configured default.
    fn deadline(&self, deadline_ms: Option<u64>) -> Option<Duration> {
        deadline_ms
            .or(self.cfg.default_deadline_ms)
            .map(Duration::from_millis)
    }

    /// Claim one gate permit for `n` requests' worth of computation (a
    /// batch of `n`, or one search). The only caller of [`Gate::admit`],
    /// and the only place an overload or a shed is booked, by `n`: both
    /// count *requests*, not batches.
    fn admit(&self, deadline_ms: Option<u64>, n: usize) -> Result<Permit<'_>, Rejection> {
        let _span = paxsim_obs::span!("serve.admission");
        let admit_by = self.deadline(deadline_ms).map(|d| Instant::now() + d);
        self.gate.admit(admit_by).map_err(|refused| match refused {
            AdmitError::Full { running, queued } => {
                self.rejected_overload.add(n as u64);
                Rejection::Overloaded { running, queued }
            }
            AdmitError::Shed => {
                self.shed.add(n as u64);
                Rejection::Shed
            }
        })
    }

    /// Compute one predicted-tier miss under `hash`.
    ///
    /// The predicted tier has its own key space
    /// ([`ResolvedSpec::content_hash_with_fidelity`]), rides the ungated
    /// flight table, and takes **no envelope, batcher or admission
    /// gate** — model evaluation is microseconds and must never queue
    /// behind engine sweeps.
    fn predicted_flight(
        &self,
        resolved: &ResolvedSpec,
        hash: ConfigHash,
    ) -> Result<Record, Rejection> {
        let peek = || self.cache.peek(hash);
        let result = flight(&self.sub_inflight, hash.0, peek, || {
            let (sides, predicted) = self.predict_cell(resolved)?;
            let rec = self.cache.put(hash, sides)?;
            self.predicted_served.inc();
            // Leader-only sentinel audit: deterministically sampled,
            // synchronous (the client already paid a cold miss), and
            // accounted exactly like a serial-baseline sub-request so
            // the cache conservation law keeps holding.
            let pair = pair_key(&resolved.spec);
            if self.auditor.should_audit(pair) {
                self.audit_prediction(resolved, pair, &predicted);
            }
            Ok(rec)
        });
        result.map_err(Rejection::Failed)
    }

    /// Evaluate the analytical model for one resolved spec: extract (or
    /// re-use, content-addressed) the reuse profile of the kernel's
    /// interned trace, map it through the configured hierarchy, and
    /// shape the outcome as a cache record — same `SideRecord` schema as
    /// the exact tier, so journals, caches and clients need no new code.
    fn predict_cell(&self, resolved: &ResolvedSpec) -> StudyResult<(Vec<SideRecord>, Predicted)> {
        let opts = resolved.options();
        let trace = self.store.try_get(resolved.trace_key())?;
        let profile = self.profiles.program(&trace, opts.machine.l1d.line as u64);
        // The latency the <100 µs predicted-tier budget measures: model
        // evaluation alone. Profile extraction is content-addressed per
        // interned region and amortizes to zero across requests.
        let t0 = Instant::now();
        let mut predicted = predict_program(&profile, &opts.machine, &resolved.config.contexts);
        // Chaos hook: a `predict-bias` plan doubles the predicted wall
        // clock — far outside every declared bound — so tests can pin
        // the auditor's detect → quarantine → exact-fallback ladder.
        if self.cfg.faults.predict_bias() {
            predicted.wall_cycles *= 2.0;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if paxsim_obs::enabled() {
            paxsim_obs::histogram_with(
                "serve.predict_seconds",
                &[("kernel", resolved.spec.kernel.as_str())],
            )
            .observe(elapsed);
        }
        lock(&self.predict_latencies).push(elapsed * 1e3);
        let speedup = if resolved.config.threads == 1 && resolved.config.group == 0 {
            1.0
        } else {
            // The predicted tier's speedup denominator is itself a
            // prediction: mixing a measured baseline into a predicted
            // ratio would make the error bound incoherent.
            let serial = resolved.serial_variant().resolve()?;
            let strace = self.store.try_get(serial.trace_key())?;
            let sprofile = self.profiles.program(&strace, opts.machine.l1d.line as u64);
            let spred = predict_program(&sprofile, &opts.machine, &serial.config.contexts);
            spred.wall_cycles / predicted.wall_cycles
        };
        let cycles = vec![predicted.wall_cycles; opts.trials];
        let speedups = vec![speedup; opts.trials];
        let sides = vec![SideRecord {
            bench: resolved.spec.kernel.clone(),
            cycles: Summary::of(&cycles),
            speedup: Summary::of(&speedups),
            counters: predicted.counters,
        }];
        Ok((sides, predicted))
    }

    /// Sentinel audit of one fresh prediction: fetch the exact answer
    /// (cache-or-compute, via the same ungated sub-request path as a
    /// serial baseline — it books `baseline_fetches` plus one cache-tier
    /// counter, so conservation holds), measure per-metric error,
    /// publish it, and let the auditor quarantine the pair if any
    /// declared bound is exceeded.
    fn audit_prediction(&self, resolved: &ResolvedSpec, pair: u64, predicted: &Predicted) {
        static QUARANTINES: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("serve.predict.quarantines");
        let _span = paxsim_obs::span!(
            "serve.predict.audit",
            kernel = resolved.spec.kernel,
            config = resolved.spec.config
        );
        let Ok(exact) = self.fetch_baseline(resolved) else {
            // The engine refusing to produce a reference is its own
            // failure with its own path; the audit just stands down.
            return;
        };
        let exact_wall = exact.sides[0].cycles.mean;
        let wall_rel = if exact_wall > 0.0 {
            (predicted.wall_cycles - exact_wall).abs() / exact_wall
        } else {
            0.0
        };
        let c = &exact.sides[0].counters;
        let exact_l1 = if c.l1d_access > 0 {
            c.l1d_miss as f64 / c.l1d_access as f64
        } else {
            0.0
        };
        let errors = [
            MetricError {
                metric: "wall",
                relative: wall_rel,
                bound: predicted.bounds.wall,
            },
            MetricError {
                metric: "l1d_miss_rate",
                relative: (predicted.l1d_miss_rate - exact_l1).abs(),
                bound: predicted.bounds.miss_rate,
            },
        ];
        if paxsim_obs::enabled() {
            for e in &errors {
                paxsim_obs::histogram_with("serve.predict.error", &[("metric", e.metric)])
                    .observe(e.relative);
            }
        }
        if !self
            .auditor
            .record(pair, &resolved.spec.kernel, &resolved.spec.config, &errors)
        {
            QUARANTINES.inc();
        }
    }

    /// Serve one `tune` request: a budgeted configuration search over
    /// the request's grid.
    ///
    /// A finished tune is its cells, so the hit is the search replayed
    /// over [`ResultCache::peek`], stopping at the first cell the cache
    /// lacks. It runs before the flight and as the flight's re-check, so
    /// a finished tune serves while draining, overloaded or quarantined.
    /// A miss takes the exact tier's pipeline — own single-flight table
    /// (a search takes seconds and must not block exact flights), the
    /// envelope keyed on the tune hash — but is **never batched** (the
    /// search decides its own evaluation order) and holds *one*
    /// admission-gate permit across the whole search (re-gating each
    /// cell could deadlock a loaded daemon, like the serial baselines).
    fn tune(&self, req: &TuneRequest, deadline_ms: Option<u64>) -> Result<String, Rejection> {
        let plan = req.plan().map_err(Rejection::Failed)?;
        let hash = plan.content_hash();
        self.tunes.inc();
        let cached = || {
            let result = tune::run(&plan, |spec, fidelity| {
                let rec = self.cache.peek(spec.content_hash_with_fidelity(fidelity));
                rec.map(|rec| rec.sides).ok_or(())
            })
            .ok()?;
            self.tune_hits.inc();
            Some(result)
        };
        let result = match cached() {
            Some(result) => result,
            None => {
                let peek = || cached().map(Ok);
                let landed = flight(&self.tune_inflight, hash.0, peek, || {
                    let _span = paxsim_obs::span!("serve.tune", kernel = plan.request.kernel);
                    self.guarded(hash.0, || {
                        let _permit = match self.admit(deadline_ms, 1) {
                            Ok(permit) => permit,
                            Err(rej) => return Ok(Err(rej)),
                        };
                        Ok(Ok(self.search(&plan, deadline_ms)?))
                    })
                });
                settle(landed)?
            }
        };
        Ok(protocol::render_tune(hash, &plan.request, &result))
    }

    /// Run one admitted search to its verdict and book it.
    ///
    /// Each cell is looked up in the result cache first (found: a
    /// replayed cell) and computed only when absent (a fresh cell), so a
    /// tune killed mid-search resumes where it stopped and renders a
    /// byte-identical reply.
    ///
    /// Cell evaluation is deliberately **counter-neutral** on the
    /// conservation law (`peek`/`put` only, never `get`): tune requests
    /// don't book `simulate_requests`, so the law's two sides stay
    /// balanced no matter how many cells a search touches. (The serial
    /// baselines inside exact cells go through [`Service::fetch_baseline`],
    /// which books both sides equally.) Exact cells take the ungated
    /// sub-request path — the search already holds the admission permit
    /// — and land in the shared cache, so a later `simulate` of the
    /// winning config is a warm hit. Predicted cells run the model with
    /// no sentinel audit — the tier's error bounds are already
    /// fidelity-gated, and auditing every probe round would multiply the
    /// search cost by the exact engine's.
    fn search(&self, plan: &TunePlan, deadline_ms: Option<u64>) -> StudyResult<TuneResult> {
        static ROUNDS: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("serve.tune.rounds");
        static PRUNED: paxsim_obs::LazyCounter = paxsim_obs::LazyCounter::new("serve.tune.pruned");
        static SEARCHES: paxsim_obs::LazyCounter =
            paxsim_obs::LazyCounter::new("serve.tune.searches");
        SEARCHES.inc();
        let (mut evals, mut fresh, mut replayed) = (0u64, 0u64, 0u64);
        let result = tune::run(plan, |spec, fidelity| {
            // Chaos hook: a `tune-abort` plan fails the search on the
            // matching evaluation, found or computed — after its
            // predecessors are already stored — so the resume path is
            // exercised end to end.
            evals += 1;
            if self.cfg.faults.tune_abort(evals) {
                return Err(StudyError::CellPanicked {
                    index: evals as usize,
                    payload: "injected tune-abort fault".to_string(),
                });
            }
            let hash = spec.content_hash_with_fidelity(fidelity);
            if let Some(rec) = self.cache.peek(hash) {
                replayed += 1;
                return Ok(rec.sides);
            }
            fresh += 1;
            let resolved = spec.resolve()?;
            let rec = if fidelity == Fidelity::Exact {
                self.sub_request(&resolved, hash, deadline_ms)
            } else {
                let model = || self.cache.put(hash, self.predict_cell(&resolved)?.0);
                flight(&self.sub_inflight, hash.0, || self.cache.peek(hash), model)
            };
            Ok(rec?.sides)
        })?;
        self.tune_completed.inc();
        self.tune_fresh.add(fresh);
        self.tune_replayed.add(replayed);
        if replayed > 0 {
            self.tune_resumes.inc();
        }
        ROUNDS.add(result.rounds.len() as u64);
        PRUNED.add(result.rounds.iter().map(|r| r.pruned as u64).sum());
        if paxsim_obs::enabled() {
            paxsim_obs::gauge("serve.tune.best_speedup").set(result.speedup);
        }
        Ok(result)
    }

    /// The batch-compatibility key: the canonical spec with the sweep
    /// coordinates (kernel, configuration) blanked, content-hashed, with
    /// the request deadline folded in. Two misses merge into one sweep
    /// exactly when they agree on class, trials, jitter, schedule, the
    /// full machine model, *and* deadline — so a merged batch runs under
    /// one [`CellPolicy`] that honors every member's deadline (they are
    /// all the same deadline).
    fn batch_key(resolved: &ResolvedSpec, deadline_ms: Option<u64>) -> u64 {
        let mut probe = resolved.spec.clone();
        probe.kernel = String::new();
        probe.config = String::new();
        let spec_hash = content_hash(&probe).0;
        fnv1a(format!("{spec_hash:016x}|{deadline_ms:?}").as_bytes())
    }

    /// Route one cache miss through the batcher. With a zero window this
    /// is a pass-through (immediate batch of one — byte-identical to the
    /// pre-batching path, which the differential test asserts).
    fn batched_compute(&self, resolved: &ResolvedSpec, deadline_ms: Option<u64>) -> Gated<Record> {
        let key = Self::batch_key(resolved, deadline_ms);
        let exec = |items| self.execute_batch(items, deadline_ms);
        self.batcher.submit(key, resolved.clone(), exec).0
    }

    /// Execute one gathered batch: one admission-gate pass, one shared
    /// sweep, one cache put per member. Results are positional (slot `i`
    /// answers the submitter of item `i`).
    ///
    /// **Equivalence:** each cell calls [`Service::compute_cell`] on its
    /// own resolved spec, exactly as an unbatched request would; cells
    /// share nothing but the scoped pool (and the caches/trace store they
    /// already shared across connections), and `compute_cell` is
    /// deterministic in its spec. Batching therefore changes only *when*
    /// and *beside whom* a computation runs — the record that lands in
    /// the cache, and the reply rendered from it, are byte-identical to
    /// the unbatched execution (DESIGN.md §13 states the full argument).
    fn execute_batch(
        &self,
        items: Vec<ResolvedSpec>,
        deadline_ms: Option<u64>,
    ) -> Vec<Gated<Record>> {
        // Chaos hook: a `serve-batch-panic` plan panics the leader here,
        // inside the batcher's catch_unwind — the poison-recovery path
        // (every rider re-runs solo) is what the regression test pins.
        if self.cfg.faults.batch_panic() {
            panic!("injected batch-leader fault ({} items)", items.len());
        }
        match self.admit(deadline_ms, items.len()) {
            Ok(_permit) => self
                .run_cells(&items, deadline_ms)
                .into_iter()
                .map(|rec| rec.map(Ok))
                .collect(),
            Err(rej) => items.iter().map(|_| Ok(Err(rej.clone()))).collect(),
        }
    }

    /// The serial-baseline sub-request: cache-or-compute on the ungated
    /// flight table, with *no* admission gate — the parallel computation
    /// asking for it already owns a permit, and its budget covers the
    /// denominator. Books `baseline_fetches` and, in the `get`, exactly
    /// one cache-tier counter (conservation).
    fn fetch_baseline(&self, resolved: &ResolvedSpec) -> StudyResult<Record> {
        self.baseline_fetches.inc();
        let hash = resolved.content_hash();
        match self.cache.get(hash) {
            Some(rec) => Ok(rec),
            None => self.sub_request(resolved, hash, None),
        }
    }

    /// One exact cell, ungated and counter-neutral: single-flight, a
    /// `peek` under the slot (never a `get` — whoever asked has booked
    /// what it owed), else a one-cell sweep.
    fn sub_request(
        &self,
        resolved: &ResolvedSpec,
        hash: ConfigHash,
        deadline_ms: Option<u64>,
    ) -> StudyResult<Record> {
        let peek = || self.cache.peek(hash);
        let cell = || {
            let mut cells = self.run_cells(std::slice::from_ref(resolved), deadline_ms);
            cells.pop().expect("one-cell sweep has one result")
        };
        flight(&self.sub_inflight, hash.0, peek, cell)
    }

    /// Compute, store and account `items` — a gathered batch or a single
    /// sub-request — as one sweep on the fault-isolating pool: a
    /// panicking engine cell (injected or real) is caught and retried
    /// with backoff instead of killing the worker thread, and the
    /// watchdog deadline turns a runaway cell into a typed `deadline`
    /// error. The only caller of `pool::map_indexed_isolated`.
    fn run_cells(
        &self,
        items: &[ResolvedSpec],
        deadline_ms: Option<u64>,
    ) -> Vec<StudyResult<Record>> {
        let policy = CellPolicy {
            deadline: self.deadline(deadline_ms),
            faults: self.cfg.faults.clone(),
            ..CellPolicy::default()
        };
        let sweep = pool::map_indexed_isolated(items.len(), &policy, |i| {
            let item = &items[i];
            let _span = paxsim_obs::span!(
                "serve.compute",
                kernel = item.spec.kernel,
                config = item.spec.config
            );
            let t0 = Instant::now();
            let sides = self.compute_cell(item)?;
            Ok((sides, t0.elapsed().as_secs_f64()))
        });
        sweep
            .results
            .into_iter()
            .zip(items)
            .map(|(res, item)| {
                let (sides, elapsed) = res?;
                let rec = self.cache.put(item.content_hash(), sides)?;
                self.computed.inc();
                if paxsim_obs::enabled() {
                    paxsim_obs::histogram_with(
                        "serve.compute_seconds",
                        &[("kernel", item.spec.kernel.as_str())],
                    )
                    .observe(elapsed);
                }
                lock(&self.latencies)
                    .entry(item.spec.kernel.clone())
                    .or_default()
                    .push(elapsed * 1e3);
                Ok(rec)
            })
            .collect()
    }

    /// The actual simulation: trace build (shared store), trials, and —
    /// for parallel configurations — the serial-baseline sub-request that
    /// the speedup divides by.
    fn compute_cell(&self, resolved: &ResolvedSpec) -> StudyResult<Vec<SideRecord>> {
        let opts = resolved.options();
        let trace = self.store.try_get(resolved.trace_key())?;
        let (cycles, counters) = run_trials_with(&opts, &trace, &resolved.config, &|jobs| {
            simulate(&opts.machine, jobs)
        });
        let speedups: Vec<f64> = if resolved.config.threads == 1 && resolved.config.group == 0 {
            vec![1.0; opts.trials]
        } else {
            let serial = resolved.serial_variant().resolve()?;
            let base = self.fetch_baseline(&serial)?;
            let base_mean = base.sides[0].cycles.mean;
            cycles.iter().map(|&c| base_mean / c).collect()
        };
        Ok(vec![SideRecord {
            bench: resolved.spec.kernel.clone(),
            cycles: Summary::of(&cycles),
            speedup: Summary::of(&speedups),
            counters,
        }])
    }

    /// Render the `stats` reply.
    fn stats_reply(&self) -> String {
        let mut latency: Vec<(String, Value)> = lock(&self.latencies)
            .iter()
            .filter_map(|(kernel, ms)| Some((kernel.clone(), ms.summary()?.to_value())))
            .collect();
        latency.sort_by(|a, b| a.0.cmp(&b.0));
        let v = obj(vec![
            ("ok", Value::Bool(true)),
            (
                "uptime_ms",
                Value::UInt(self.started.elapsed().as_millis() as u64),
            ),
            ("requests", Value::UInt(self.requests.get())),
            ("simulate_requests", Value::UInt(self.simulate_requests())),
            ("draining", Value::Bool(self.draining())),
            (
                "cache",
                obj(vec![
                    ("mem_hits", Value::UInt(self.cache.mem_hits())),
                    ("disk_hits", Value::UInt(self.cache.disk_hits())),
                    ("misses", Value::UInt(self.cache.misses())),
                    ("entries_mem", Value::UInt(self.cache.mem_len() as u64)),
                    ("entries_disk", Value::UInt(self.cache.disk_len() as u64)),
                    (
                        "corrupt_dropped",
                        Value::UInt(self.cache.corrupt_dropped() as u64),
                    ),
                    ("shards", self.shard_rows(false)),
                ]),
            ),
            (
                "batch",
                obj(vec![
                    ("window_ms", Value::UInt(self.cfg.batch_window_ms)),
                    ("batches", Value::UInt(self.batcher.batches())),
                    ("merged", Value::UInt(self.batcher.merged())),
                    ("poisoned", Value::UInt(self.batcher.poisoned())),
                    (
                        "open_groups",
                        Value::UInt(self.batcher.open_groups() as u64),
                    ),
                ]),
            ),
            (
                "degraded",
                obj(vec![
                    ("shed", Value::UInt(self.shed())),
                    (
                        "quarantined_rejections",
                        Value::UInt(self.breaker.rejected()),
                    ),
                    ("breaker_trips", Value::UInt(self.breaker.trips())),
                    ("put_failures", Value::UInt(self.cache.put_failures())),
                    (
                        "journal_write_errors",
                        Value::UInt(self.cache.write_errors() as u64),
                    ),
                ]),
            ),
            (
                "inflight",
                obj(vec![
                    ("current", Value::UInt(self.inflight.in_flight() as u64)),
                    ("led", Value::UInt(self.inflight.led())),
                    ("joined", Value::UInt(self.inflight.joined())),
                ]),
            ),
            (
                "admission",
                self.admission_block([
                    ("rejected_overload", &self.rejected_overload),
                    ("rejected_draining", &self.rejected_draining),
                ]),
            ),
            ("computed", Value::UInt(self.computed())),
            ("baseline_fetches", Value::UInt(self.baseline_fetches())),
            ("predict", self.predict_block()),
            (
                "tune",
                obj(vec![
                    ("requests", Value::UInt(self.tunes())),
                    ("hits", Value::UInt(self.tune_hits())),
                    ("completed", Value::UInt(self.tune_completed())),
                    ("resumes", Value::UInt(self.tune_resumes())),
                    ("fresh_cells", Value::UInt(self.tune_fresh.get())),
                    ("replayed_cells", Value::UInt(self.tune_replayed.get())),
                ]),
            ),
            ("traces_built", Value::UInt(self.store.builds())),
            ("latency_ms", Value::Object(latency)),
        ]);
        serde_json::to_string(&v).expect("value tree renders infallibly")
    }

    /// The admission object shared by `stats` and `health`: gate depth and
    /// limits, then the two refusal counts that reply carries.
    fn admission_block(&self, refusals: [(&str, &Tally); 2]) -> Value {
        let (running, queued) = self.gate.depth();
        let mut entries = vec![
            ("running", Value::UInt(running as u64)),
            ("queued", Value::UInt(queued as u64)),
            ("max_running", Value::UInt(self.cfg.max_running as u64)),
            ("max_queue", Value::UInt(self.cfg.max_queue as u64)),
        ];
        entries.extend(refusals.map(|(k, n)| (k, Value::UInt(n.get()))));
        obj(entries)
    }

    /// One row per cache shard: `stats` leads with the traffic counters,
    /// `health` carries `put_failures`; the journal-health keys are
    /// common.
    fn shard_rows(&self, health: bool) -> Value {
        let row = |s: &crate::cache::ShardStats| {
            let mut entries = Vec::new();
            if !health {
                entries.extend([
                    ("mem_hits", s.mem_hits),
                    ("disk_hits", s.disk_hits),
                    ("misses", s.misses),
                    ("puts", s.puts),
                ]);
            }
            entries.extend([
                ("entries_mem", s.entries_mem as u64),
                ("entries_disk", s.entries_disk as u64),
                ("corrupt_dropped", s.corrupt_dropped as u64),
                ("write_errors", s.write_errors as u64),
            ]);
            if health {
                entries.push(("put_failures", s.put_failures));
            }
            entries.push(("stale_lines", s.stale_lines as u64));
            obj(entries
                .into_iter()
                .map(|(k, n)| (k, Value::UInt(n)))
                .collect())
        };
        Value::Array(self.cache.shard_stats().iter().map(row).collect())
    }

    /// The predicted-tier status object shared by `stats` and `health`:
    /// volume, audit outcomes, quarantine state, and the auditor's
    /// measured p95 wall-clock error (absent until the first audit).
    fn predict_block(&self) -> Value {
        let mut entries = vec![
            ("served", Value::UInt(self.predicted_served())),
            ("audits", Value::UInt(self.auditor.audits() as u64)),
            (
                "quarantined_pairs",
                Value::UInt(self.auditor.quarantined_pairs() as u64),
            ),
            ("fallbacks", Value::UInt(self.auditor.fallbacks() as u64)),
        ];
        if let Some(latency) = self.predict_latencies_ms() {
            entries.push(("latency_ms", latency.to_value()));
        }
        if let Some(p95) = self.auditor.error_p95() {
            entries.push(("error_p95", Value::Float(p95)));
        }
        let events = self.auditor.events().iter().map(|e| e.to_value()).collect();
        entries.push(("events", Value::Array(events)));
        obj(entries)
    }

    /// Render the `health` reply: liveness plus every degradation signal
    /// an orchestrator needs — drain status, admission pressure, breaker
    /// quarantine list, per-shard journal health. Cheap (no compute, no
    /// cache traffic) and safe to poll every second.
    fn health_reply(&self) -> String {
        let quarantined: Vec<Value> = self
            .breaker
            .snapshot()
            .into_iter()
            .map(|q| {
                obj(vec![
                    ("hash", Value::String(format!("{:016x}", q.hash))),
                    ("failures", Value::UInt(u64::from(q.failures))),
                    ("state", Value::String(q.state.to_string())),
                    ("retry_in_ms", Value::UInt(q.retry_in_ms)),
                ])
            })
            .collect();
        let status = if self.draining() { "draining" } else { "ready" };
        let v = obj(vec![
            ("ok", Value::Bool(true)),
            ("status", Value::String(status.to_string())),
            (
                "uptime_ms",
                Value::UInt(self.started.elapsed().as_millis() as u64),
            ),
            ("workers", Value::UInt(self.cfg.effective_workers() as u64)),
            (
                "admission",
                self.admission_block([
                    ("shed", &self.shed),
                    ("rejected_overload", &self.rejected_overload),
                ]),
            ),
            (
                "breaker",
                obj(vec![
                    (
                        "threshold",
                        Value::UInt(u64::from(self.breaker.threshold())),
                    ),
                    ("cooldown_ms", Value::UInt(self.breaker.cooldown_ms())),
                    ("trips", Value::UInt(self.breaker.trips())),
                    ("rejected", Value::UInt(self.breaker.rejected())),
                    ("quarantined", Value::Array(quarantined)),
                ]),
            ),
            (
                "degraded",
                obj(vec![
                    ("put_failures", Value::UInt(self.cache.put_failures())),
                    (
                        "journal_write_errors",
                        Value::UInt(self.cache.write_errors() as u64),
                    ),
                    ("batch_poisoned", Value::UInt(self.batcher.poisoned())),
                ]),
            ),
            ("predict", self.predict_block()),
            ("shards", self.shard_rows(true)),
        ]);
        serde_json::to_string(&v).expect("value tree renders infallibly")
    }

    /// Render the `metrics` reply: refresh the scrape-time gauges, then
    /// ship the registry snapshot as both Prometheus exposition text and
    /// structured JSON. Counters/histograms accumulate at their call
    /// sites; only point-in-time state is sampled here.
    fn metrics_reply(&self) -> String {
        if paxsim_obs::enabled() {
            let (running, queued) = self.gate.depth();
            paxsim_obs::gauge("serve.admission.running").set(running as f64);
            paxsim_obs::gauge("serve.admission.queued").set(queued as f64);
            paxsim_obs::gauge("serve.cache.entries_mem").set(self.cache.mem_len() as f64);
            paxsim_obs::gauge("serve.cache.entries_disk").set(self.cache.disk_len() as f64);
            paxsim_obs::gauge("serve.inflight.current").set(self.inflight.in_flight() as f64);
            paxsim_obs::gauge("serve.draining").set(f64::from(u8::from(self.draining())));
            paxsim_obs::gauge("serve.uptime_seconds").set(self.started.elapsed().as_secs_f64());
            paxsim_obs::gauge("serve.batch.open_groups").set(self.batcher.open_groups() as f64);
            paxsim_obs::gauge("serve.cache.shards").set(self.cache.shard_count() as f64);
            paxsim_obs::gauge("serve.predict.quarantined_pairs")
                .set(self.auditor.quarantined_pairs() as f64);
            if let Some(p95) = self.auditor.error_p95() {
                paxsim_obs::gauge("serve.predict_error_p95").set(p95);
            }
            paxsim_machine::memo::PROCESS.publish_gauges();
            let (open, queued) = (&self.open_connections, &self.queued_jobs);
            paxsim_obs::gauge("serve.reactor.open_connections")
                .set(open.load(Ordering::SeqCst) as f64);
            paxsim_obs::gauge("serve.reactor.ready_queue_depth")
                .set(queued.load(Ordering::SeqCst) as f64);
            for (i, s) in self.cache.shard_stats().iter().enumerate() {
                let shard = i.to_string();
                let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
                paxsim_obs::gauge_with("serve.cache.shard.mem_hits", labels).set(s.mem_hits as f64);
                paxsim_obs::gauge_with("serve.cache.shard.disk_hits", labels)
                    .set(s.disk_hits as f64);
                paxsim_obs::gauge_with("serve.cache.shard.misses", labels).set(s.misses as f64);
                paxsim_obs::gauge_with("serve.cache.shard.entries_mem", labels)
                    .set(s.entries_mem as f64);
                paxsim_obs::gauge_with("serve.cache.shard.entries_disk", labels)
                    .set(s.entries_disk as f64);
            }
        }
        let snap = paxsim_obs::snapshot();
        let v = Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("enabled".to_string(), Value::Bool(paxsim_obs::enabled())),
            ("series".to_string(), Value::UInt(snap.series() as u64)),
            (
                "prometheus".to_string(),
                Value::String(snap.to_prometheus()),
            ),
            ("snapshot".to_string(), snap.to_json()),
        ]);
        serde_json::to_string(&v).expect("value tree renders infallibly")
    }

    /// Serial-baseline sub-requests performed.
    pub fn baseline_fetches(&self) -> u64 {
        self.baseline_fetches.get()
    }

    /// `simulate` requests that reached a cache lookup (the server-side
    /// arm of the conservation law).
    pub fn simulate_requests(&self) -> u64 {
        self.simulates.get()
    }

    /// Queued computations shed at deadline expiry.
    pub fn shed(&self) -> u64 {
        self.shed.get()
    }

    /// The per-config circuit breaker (trip/reject counters, snapshot).
    pub fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    /// Batch groups poisoned by a leader panic (every rider recovered
    /// solo).
    pub fn batch_poisoned(&self) -> u64 {
        self.batcher.poisoned()
    }

    /// Stop admitting new computations (cache hits and stats still
    /// serve). The journal flushes per append, so no separate cache
    /// flush is needed.
    pub fn set_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Computations currently admitted (running or queued).
    pub fn busy(&self) -> usize {
        let (running, queued) = self.gate.depth();
        running + queued
    }

    /// Cold-miss computations performed.
    pub fn computed(&self) -> u64 {
        self.computed.get()
    }

    /// The shared trace store (its `builds()` counter lets tests prove a
    /// cache hit did zero engine work).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// The result cache (hit/miss counters).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The service configuration as opened.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Batches executed by the gather-window batcher.
    pub fn batches(&self) -> u64 {
        self.batcher.batches()
    }

    /// The sentinel prediction auditor (audit/quarantine/fallback
    /// counters and events).
    pub fn predict_auditor(&self) -> &PredictAuditor {
        &self.auditor
    }

    /// Predicted-tier records computed (cold predictions, not hits).
    pub fn predicted_served(&self) -> u64 {
        self.predicted_served.get()
    }

    /// Model-evaluation latency so far, in milliseconds (`None` before
    /// the first evaluation).
    pub fn predict_latencies_ms(&self) -> Option<Summary> {
        lock(&self.predict_latencies).summary()
    }

    /// Requests that rode another request's batch (merge count).
    pub fn batch_merged(&self) -> u64 {
        self.batcher.merged()
    }

    /// Tune requests received (including cache hits and rejections).
    pub fn tunes(&self) -> u64 {
        self.tunes.get()
    }

    /// Tune requests answered by a replay over the result cache.
    pub fn tune_hits(&self) -> u64 {
        self.tune_hits.get()
    }

    /// Tune searches run to completion.
    pub fn tune_completed(&self) -> u64 {
        self.tune_completed.get()
    }

    /// Completed searches that found at least one cell in the result
    /// cache — the work of an earlier search, `simulate` or daemon.
    pub fn tune_resumes(&self) -> u64 {
        self.tune_resumes.get()
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The flight step of the miss pipeline: single-flight under `key`; the
/// leader re-`peek`s under its slot — a flight for this key may have
/// landed (and cached) between the caller's probe and this slot claim —
/// else computes. `peek` must book nothing: whoever reached a flight
/// already booked its miss.
fn flight<V: Clone>(
    table: &Inflight<V>,
    key: u64,
    peek: impl FnOnce() -> Option<V>,
    compute: impl FnOnce() -> StudyResult<V>,
) -> StudyResult<V> {
    table.run(key, || peek().map_or_else(compute, Ok)).0
}

/// Fold what a gated flight landed with into the one rejection type.
fn settle<T>(landed: Gated<T>) -> Result<T, Rejection> {
    landed.unwrap_or_else(|e| Err(Rejection::Failed(e)))
}

/// The auditor's (kernel, config, class) key of a canonical spec.
fn pair_key(spec: &StudySpec) -> u64 {
    PredictAuditor::pair_key(&spec.kernel, &spec.config, &spec.class)
}

/// A request no cache tier could answer: the key the hit ladder ended
/// on, whether that key is in the predicted key space, and whether a
/// quarantined pair is what sent a non-exact request to the exact tier.
struct Miss {
    hash: ConfigHash,
    predicted: bool,
    quarantined: bool,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use paxsim_core::faultinject::Faults;
    use std::path::PathBuf;
    use std::sync::Barrier;

    /// The miss pipeline is written once (module doc); this file grew
    /// 1 075 -> 2 340 lines over three PRs with nobody looking. Count what
    /// is neither blank, `//` comment nor test (everything from the first
    /// `#[cfg(test)]` on), under `cargo fmt`, and fail above the number the
    /// last PR to shrink it landed at. A PR that needs more room raises the
    /// ceiling in the same diff and says why.
    #[test]
    fn service_rs_stays_under_its_ceiling() {
        const SERVICE_CEILING: usize = 1056;
        let code = include_str!("service.rs")
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .map(str::trim_start)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count();
        assert!(
            code <= SERVICE_CEILING,
            "service.rs regrew past its ceiling ({code} non-test code lines, ceiling \
             {SERVICE_CEILING}): fold the new code into the one miss pipeline, or raise \
             SERVICE_CEILING and say why"
        );
    }

    /// Held by every test in this crate that books `serve.predict.fallbacks`
    /// or a refusal (`serve.admission.*`, `serve.breaker.rejected`). Obs
    /// series are process-wide, and four tests here pin their exact deltas.
    pub(crate) fn obs_series() -> MutexGuard<'static, ()> {
        static SERIES: Mutex<()> = Mutex::new(());
        lock(&SERIES)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("paxsim_serve_service_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn plan(spec: &str) -> Faults {
        Faults::parse(spec).unwrap()
    }

    /// A service whose fault plan is `faults`.
    fn faulted(name: &str, faults: &Faults) -> Service {
        Service::open(ServeConfig {
            cache_dir: tmp(name),
            faults: faults.clone(),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn service(name: &str) -> Service {
        faulted(name, &Faults::default())
    }

    const EP_CMP: &str = r#"{"op":"simulate","kernel":"ep","config":"CMP"}"#;

    #[test]
    fn miss_then_hit_is_byte_identical_with_no_new_engine_work() {
        let s = service("hit");
        let cold = s.handle_line(EP_CMP);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        let builds = s.store().builds();
        let computed = s.computed();
        let hot = s.handle_line(EP_CMP);
        assert_eq!(cold, hot, "cache hit must be byte-identical");
        assert_eq!(s.store().builds(), builds, "hit built no traces");
        assert_eq!(s.computed(), computed, "hit computed nothing");
        assert!(s.cache().hits() >= 1);
    }

    #[test]
    fn memo_is_bounded_exact_and_fed_only_by_hits() {
        use crate::protocol::{MEMO_MAX_LINE, MEMO_SLOTS};
        let s = service("memo_bound");
        let want = s.handle_line(EP_CMP);
        assert_eq!(s.memo.len(), 0, "a computed miss enters nothing");
        let conserved = || {
            assert_eq!(
                s.cache().hits() + s.cache().misses(),
                s.simulate_requests() + s.baseline_fetches(),
            );
        };
        // Ten times the capacity in distinct lines, all for the cached
        // point (`deadline_ms` is no part of its identity): each hits the
        // first time it is asked, on alternating paths, and is in the memo
        // from then on; the table never outgrows its slots and every
        // reply, memoized or not, is the cached one.
        let line = |i: usize| {
            format!(r#"{{"op":"simulate","kernel":"ep","config":"CMP","deadline_ms":{i}}}"#)
        };
        for i in 0..10 * MEMO_SLOTS {
            let line = line(i);
            assert!(!s.memo.resolve(&line).1, "never asked: {line}");
            let first = match i % 2 {
                0 => s.try_hit(&line).expect("the point is cached"),
                _ => s.handle_line(&line),
            };
            assert_eq!(first, want, "{line}");
            assert!(s.memo.resolve(&line).1, "answered as a hit: {line}");
            assert_eq!(s.try_hit(&line).as_deref(), Some(want.as_str()));
            assert!(s.memo.len() <= MEMO_SLOTS);
        }
        assert!(
            s.memo.len() > MEMO_SLOTS / 2,
            "the lines spread over the slots"
        );
        conserved();
        // An over-long line is answered like any other and never kept.
        let held = s.memo.len();
        let long = format!("{EP_CMP}{}", " ".repeat(MEMO_MAX_LINE));
        for _ in 0..3 {
            assert_eq!(s.try_hit(&long).as_deref(), Some(want.as_str()));
            assert_eq!(s.handle_line(&long), want);
            assert!(!s.memo.resolve(&long).1);
        }
        // Never-seen lines that miss leave the table as it was: the inline
        // path passes them, and a computed reply is not a hit.
        let recent: Vec<String> = (9 * MEMO_SLOTS..10 * MEMO_SLOTS).map(line).collect();
        let kept = |s: &Service| -> Vec<bool> {
            recent.iter().map(|line| s.memo.resolve(line).1).collect()
        };
        let before = kept(&s);
        let cold = |i: usize| {
            format!(
                r#"{{"op":"simulate","kernel":"ep","config":"CMP","jitter":{}}}"#,
                i + 1
            )
        };
        for i in 0..2 * MEMO_SLOTS {
            assert_eq!(s.try_hit(&cold(i)), None);
        }
        let computed = s.handle_line(&cold(0));
        assert!(computed.contains("\"ok\":true"), "{computed}");
        assert_eq!((s.memo.len(), kept(&s)), (held, before));
        // … until it is asked again and hits.
        assert_eq!(s.try_hit(&cold(0)), Some(computed));
        assert!(s.memo.resolve(&cold(0)).1);
        conserved();
    }

    #[test]
    fn speedup_agrees_with_the_single_program_driver() {
        let s = service("parity");
        let reply = s.handle_line(EP_CMP);
        let v = serde_json::parse(&reply).unwrap();
        let served = v["result"]["sides"][0]["speedup"]["mean"].as_f64().unwrap();
        let opts = paxsim_core::study::StudyOptions::quick()
            .with_benchmarks(vec![paxsim_nas::KernelId::Ep]);
        let study =
            paxsim_core::single::run_single_program(&opts, &paxsim_core::store::TraceStore::new());
        let reference = study
            .cell(paxsim_nas::KernelId::Ep, "CMP")
            .unwrap()
            .speedup
            .mean;
        assert_eq!(served, reference, "serve path must match the driver");
    }

    #[test]
    fn serial_request_serves_unit_speedup_and_seeds_the_baseline() {
        let s = service("serial");
        let reply = s.handle_line(r#"{"op":"simulate","kernel":"ep","config":"Serial"}"#);
        let v = serde_json::parse(&reply).unwrap();
        assert_eq!(
            v["result"]["sides"][0]["speedup"]["mean"].as_f64(),
            Some(1.0)
        );
        // The parallel request's denominator is now a cache hit: exactly
        // one more computation happens, not two.
        let computed = s.computed();
        s.handle_line(EP_CMP);
        assert_eq!(s.computed(), computed + 1);
    }

    #[test]
    fn draining_refuses_misses_but_serves_hits_and_stats() {
        let _series = obs_series();
        let s = service("drain");
        let cold = s.handle_line(EP_CMP);
        s.set_draining();
        let hit = s.handle_line(EP_CMP);
        assert_eq!(cold, hit, "hits still serve while draining");
        let miss = s.handle_line(r#"{"op":"simulate","kernel":"cg","config":"CMP"}"#);
        assert!(miss.contains("\"error\":\"draining\""), "{miss}");
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains("\"draining\":true"), "{stats}");
    }

    #[test]
    fn bad_requests_are_typed_not_fatal() {
        let s = service("bad");
        let r = s.handle_line(r#"{"op":"simulate","kernel":"zz","config":"CMP"}"#);
        assert!(r.contains("\"error\":\"bad-request\""), "{r}");
        assert!(r.contains("zz"), "{r}");
        let r = s.handle_line("garbage");
        assert!(r.contains("\"error\":\"bad-request\""), "{r}");
    }

    #[test]
    fn gate_admits_bounded_and_rejects_typed() {
        let g = Gate::new(1, 1);
        let p0 = g.admit(None).unwrap();
        // Running set full, queue empty: a queued waiter blocks, so test
        // the reject path by filling the queue from another thread that
        // never gets the slot until we drop p0.
        let gate = &g;
        let queued = Barrier::new(2);
        std::thread::scope(|scope| {
            let qref = &queued;
            let h = scope.spawn(move || {
                qref.wait();
                let _p = gate.admit(None).unwrap(); // queues, then runs
            });
            queued.wait();
            // Wait for the spawned thread to be *queued*.
            while gate.depth().1 == 0 {
                std::thread::yield_now();
            }
            assert_eq!(
                gate.admit(None).err(),
                Some(AdmitError::Full {
                    running: 1,
                    queued: 1
                }),
                "running and queue both full must reject"
            );
            drop(p0);
            h.join().unwrap();
        });
        assert_eq!(g.depth(), (0, 0), "permits all returned");
    }

    #[test]
    fn gate_sheds_expired_queued_waiters() {
        let g = Gate::new(1, 4);
        let p0 = g.admit(None).unwrap();
        // Queue behind the held slot with a deadline that expires while
        // waiting: the waiter must shed, not run, and its queue slot must
        // be released.
        let t0 = Instant::now();
        let shed = g.admit(Some(Instant::now() + Duration::from_millis(30)));
        assert_eq!(shed.err(), Some(AdmitError::Shed));
        assert!(
            t0.elapsed() >= Duration::from_millis(25),
            "shed must wait out the deadline, not reject eagerly"
        );
        assert_eq!(g.depth(), (1, 0), "shed waiter must leave the queue");
        // An already-expired deadline on a *free* gate still admits —
        // shedding applies to queue waits, not to work that can start
        // immediately.
        drop(p0);
        let p = g.admit(Some(Instant::now() - Duration::from_millis(1)));
        assert!(p.is_ok(), "free slot admits regardless of deadline");
    }

    #[test]
    fn repeated_panics_trip_the_breaker_into_typed_quarantine() {
        // cell-panic:0:50 panics every compute attempt. Each request
        // burns 1 + max_retries (= 3) attempts, fails post-retry, and
        // counts one breaker failure; at threshold 2 the third request
        // must be refused as `quarantined` without computing at all.
        let _series = obs_series();
        let faults = plan("cell-panic:0:50");
        let s = Service::open(ServeConfig {
            cache_dir: tmp("breaker"),
            breaker_threshold: 2,
            breaker_cooldown_ms: 60_000,
            faults,
            ..ServeConfig::default()
        })
        .unwrap();
        let r1 = s.handle_line(EP_CMP);
        assert!(r1.contains("\"error\":\"panic\""), "{r1}");
        let r2 = s.handle_line(EP_CMP);
        assert!(r2.contains("\"error\":\"panic\""), "{r2}");
        assert_eq!(s.breaker().trips(), 1, "tripped at threshold 2");
        let r3 = s.handle_line(EP_CMP);
        assert!(r3.contains("\"error\":\"quarantined\""), "{r3}");
        assert!(r3.contains("retry in"), "{r3}");
        assert_eq!(s.breaker().rejected(), 1);
        // Health must name the quarantined config.
        let h = s.handle_line(r#"{"op":"health"}"#);
        assert!(h.contains("\"quarantined\":[{"), "{h}");
        assert!(h.contains("\"state\":\"open\""), "{h}");
        // Conservation holds even with every path rejected:
        // 3 requests, 3 misses, 0 hits, 0 baselines.
        assert_eq!(
            s.cache().hits() + s.cache().misses(),
            s.simulate_requests() + s.baseline_fetches(),
        );
    }

    #[test]
    fn breaker_probe_recovers_after_transient_poisoning() {
        // Two panic-failing requests trip a threshold-2 breaker; once the
        // budget is exhausted and the cooldown passes, the half-open
        // probe computes normally and the breaker closes.
        let faults = plan("cell-panic:0:6");
        let s = Service::open(ServeConfig {
            cache_dir: tmp("breaker_recover"),
            breaker_threshold: 2,
            breaker_cooldown_ms: 40,
            faults,
            ..ServeConfig::default()
        })
        .unwrap();
        // 2 requests x 3 attempts = 6 panics: exactly the budget.
        assert!(s.handle_line(EP_CMP).contains("\"error\":\"panic\""));
        assert!(s.handle_line(EP_CMP).contains("\"error\":\"panic\""));
        assert_eq!(s.breaker().trips(), 1);
        std::thread::sleep(Duration::from_millis(60));
        let probe = s.handle_line(EP_CMP);
        assert!(probe.contains("\"ok\":true"), "{probe}");
        assert!(
            s.breaker().snapshot().is_empty(),
            "successful probe must close the breaker"
        );
    }

    #[test]
    fn journal_fault_degrades_put_but_serves_byte_identical() {
        // Sized for the worst case: EP/CMP computes the parallel cell
        // plus its serial baseline — two puts. A budget of 2 fails both
        // appends; the replies must still be correct and the *hit* must
        // be byte-identical to the degraded miss reply.
        let s = faulted("degraded", &plan("journal-fail:2"));
        let cold = s.handle_line(EP_CMP);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(s.cache().put_failures() >= 1, "put must have degraded");
        let hot = s.handle_line(EP_CMP);
        assert_eq!(cold, hot, "degraded record must serve byte-identical");
        let h = s.handle_line(r#"{"op":"health"}"#);
        let v = serde_json::parse(&h).unwrap();
        assert!(v["degraded"]["put_failures"].as_u64().unwrap() >= 1, "{h}");
        assert!(
            v["degraded"]["journal_write_errors"].as_u64().unwrap() >= 1,
            "{h}"
        );
    }

    #[test]
    fn shard_slow_fault_delays_but_serves_identical_replies() {
        let s = faulted("shard_slow", &plan("serve-shard-slow:30:2"));
        let t0 = Instant::now();
        let cold = s.handle_line(EP_CMP);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "the stall must actually happen"
        );
        drop(s);
        // The same request against a healthy service is byte-identical
        // modulo cache state — assert on a second, un-faulted service.
        let slow_dir = std::env::temp_dir()
            .join("paxsim_serve_service_tests")
            .join("shard_slow");
        let s1 = Service::open(ServeConfig {
            cache_dir: slow_dir,
            ..ServeConfig::default()
        })
        .unwrap();
        let s2 = service("shard_slow_ref");
        assert_eq!(
            s1.handle_line(EP_CMP),
            s2.handle_line(EP_CMP),
            "a slow shard must never change reply bytes"
        );
    }

    #[test]
    fn injected_cell_panic_is_retried_not_fatal() {
        // One injected panic on the compute cell: the isolation layer
        // retries and the client still gets a result.
        let s = faulted("fault", &plan("cell-panic:0:1"));
        let r = s.handle_line(EP_CMP);
        assert!(r.contains("\"ok\":true"), "{r}");
    }

    #[test]
    fn compatible_concurrent_misses_merge_into_one_batch() {
        let s = Service::open(ServeConfig {
            cache_dir: tmp("merge"),
            batch_window_ms: 120,
            ..ServeConfig::default()
        })
        .unwrap();
        // Same class/trials/schedule/machine/deadline, different sweep
        // coordinates: these must gather into one group.
        let lines = [
            EP_CMP,
            r#"{"op":"simulate","kernel":"cg","config":"CMP"}"#,
            r#"{"op":"simulate","kernel":"is","config":"CMP"}"#,
        ];
        let gate = std::sync::Barrier::new(lines.len());
        let replies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = lines
                .iter()
                .map(|line| {
                    let (s, gate) = (&s, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        s.handle_line(line)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &replies {
            assert!(r.contains("\"ok\":true"), "{r}");
        }
        assert!(
            s.batch_merged() >= 1,
            "concurrent compatible misses must merge (merged = {}, batches = {})",
            s.batch_merged(),
            s.batches()
        );
        assert_eq!(
            s.computed(),
            6,
            "3 parallel kernels + 3 per-kernel serial baselines, once each"
        );
    }

    #[test]
    fn incompatible_requests_never_merge() {
        let s = Service::open(ServeConfig {
            cache_dir: tmp("nomerge"),
            batch_window_ms: 60,
            ..ServeConfig::default()
        })
        .unwrap();
        // Different trial counts → different batch keys.
        let lines = [
            r#"{"op":"simulate","kernel":"ep","config":"CMP","trials":1}"#,
            r#"{"op":"simulate","kernel":"cg","config":"CMP","trials":2}"#,
        ];
        let gate = std::sync::Barrier::new(lines.len());
        std::thread::scope(|scope| {
            for line in &lines {
                let (s, gate) = (&s, &gate);
                scope.spawn(move || {
                    gate.wait();
                    let r = s.handle_line(line);
                    assert!(r.contains("\"ok\":true"), "{r}");
                });
            }
        });
        assert_eq!(s.batch_merged(), 0, "incompatible specs must not merge");
    }

    #[test]
    fn batched_replies_are_byte_identical_to_unbatched() {
        // The batching equivalence argument, tested differentially: the
        // same request set served through a wide-open gather window
        // (merged sweep) and through a zero window (sequential batches of
        // one) must produce byte-identical reply lines.
        let lines = [
            EP_CMP,
            r#"{"op":"simulate","kernel":"cg","config":"CMP"}"#,
            r#"{"op":"simulate","kernel":"is","config":"CMP"}"#,
            r#"{"op":"simulate","kernel":"ep","config":"CMT"}"#,
        ];
        let plain = Service::open(ServeConfig {
            cache_dir: tmp("diff_plain"),
            batch_window_ms: 0,
            ..ServeConfig::default()
        })
        .unwrap();
        let unbatched: Vec<String> = lines.iter().map(|l| plain.handle_line(l)).collect();
        assert_eq!(plain.batch_merged(), 0);

        let batched_svc = Service::open(ServeConfig {
            cache_dir: tmp("diff_batched"),
            batch_window_ms: 150,
            ..ServeConfig::default()
        })
        .unwrap();
        let gate = std::sync::Barrier::new(lines.len());
        let batched: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = lines
                .iter()
                .map(|line| {
                    let (s, gate) = (&batched_svc, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        s.handle_line(line)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            batched_svc.batch_merged() >= 1,
            "differential run must actually exercise a merged batch"
        );
        for (line, (b, u)) in lines.iter().zip(batched.iter().zip(&unbatched)) {
            assert!(b.contains("\"ok\":true"), "{b}");
            assert_eq!(b, u, "batched reply for {line} diverged from unbatched");
        }
    }

    const EP_CMP_PRED: &str =
        r#"{"op":"simulate","kernel":"ep","config":"CMP","fidelity":"predicted"}"#;

    #[test]
    fn predicted_tier_serves_caches_and_audits_in_bounds() {
        let s = service("predicted");
        let cold = s.handle_line(EP_CMP_PRED);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(cold.contains("\"fidelity\":\"predicted\""), "{cold}");
        assert!(cold.contains("\"error_bounds\""), "{cold}");
        assert_eq!(s.predicted_served(), 1);
        // The first prediction of a pair is always audited; EP is the
        // model's best-behaved kernel, so the audit must pass.
        assert_eq!(s.predict_auditor().audits(), 1);
        assert_eq!(s.predict_auditor().quarantined_pairs(), 0);
        assert!(s.predict_auditor().error_p95().is_some());
        // Hot predicted request: byte-identical, no new model eval.
        let hot = s.handle_line(EP_CMP_PRED);
        assert_eq!(cold, hot, "predicted cache hit must be byte-identical");
        assert_eq!(s.predicted_served(), 1);
        // Inline reactor fast path agrees byte for byte.
        assert_eq!(s.try_hit(EP_CMP_PRED).as_deref(), Some(hot.as_str()));
        // Conservation holds with the audit's baseline fetch counted.
        assert_eq!(
            s.cache().hits() + s.cache().misses(),
            s.simulate_requests() + s.baseline_fetches(),
        );
    }

    #[test]
    fn predicted_and_exact_answers_never_alias() {
        let s = service("pred_alias");
        let exact_before = s.handle_line(EP_CMP);
        let predicted = s.handle_line(EP_CMP_PRED);
        assert_ne!(exact_before, predicted, "tiers must answer differently");
        // The predicted record must not have displaced or poisoned the
        // exact one: the exact reply is still byte-identical.
        let exact_after = s.handle_line(EP_CMP);
        assert_eq!(exact_before, exact_after);
        // And `stats` reports the predicted tier.
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        let v = serde_json::parse(&stats).unwrap();
        assert_eq!(v["predict"]["served"].as_u64(), Some(1), "{stats}");
        assert_eq!(v["predict"]["audits"].as_u64(), Some(1), "{stats}");
    }

    #[test]
    fn fast_fidelity_prefers_a_cached_exact_answer() {
        let s = service("fast_tier");
        let exact = s.handle_line(EP_CMP);
        let fast =
            s.handle_line(r#"{"op":"simulate","kernel":"ep","config":"CMP","fidelity":"fast"}"#);
        assert_eq!(exact, fast, "cached exact answer beats a prediction");
        assert_eq!(s.predicted_served(), 0, "no model eval happened");
        // Cold spec: fast falls through to the predicted tier.
        let fast_cold =
            s.handle_line(r#"{"op":"simulate","kernel":"cg","config":"CMP","fidelity":"fast"}"#);
        assert!(fast_cold.contains("\"fidelity\":\"fast\""), "{fast_cold}");
        assert_eq!(s.predicted_served(), 1);
        assert_eq!(
            s.cache().hits() + s.cache().misses(),
            s.simulate_requests() + s.baseline_fetches(),
        );
    }

    #[test]
    fn biased_predictor_is_quarantined_and_falls_back_byte_identical() {
        // Satellite regression: a `predict-bias` fault doubles predicted
        // wall clock — far outside the declared 25 % bound. The
        // always-audited first prediction must detect it, quarantine the
        // (kernel, config, class) pair, and every later non-exact request
        // for that pair must silently serve the exact tier, byte-identical
        // to a fault-free exact run.
        let _series = obs_series();
        let reference = service("bias_ref").handle_line(EP_CMP);
        let s = faulted("bias", &plan("predict-bias"));
        let biased = s.handle_line(EP_CMP_PRED);
        assert!(biased.contains("\"fidelity\":\"predicted\""), "{biased}");
        assert_eq!(s.predict_auditor().audits(), 1, "first prediction audited");
        assert_eq!(
            s.predict_auditor().quarantined_pairs(),
            1,
            "out-of-bound error must quarantine the pair"
        );
        assert!(!s.predict_auditor().events().is_empty());
        // Quarantined pair: the predicted request now serves exact,
        // byte-identical to the fault-free exact reply.
        let fallback = s.handle_line(EP_CMP_PRED);
        assert_eq!(fallback, reference, "fallback must be the exact tier");
        assert_eq!(s.predict_auditor().fallbacks(), 1);
        // The inline fast path honors the quarantine the same way.
        assert_eq!(s.try_hit(EP_CMP_PRED).as_deref(), Some(reference.as_str()));
        assert_eq!(s.predict_auditor().fallbacks(), 2);
        // Health names the quarantined pair's audit event.
        let h = s.handle_line(r#"{"op":"health"}"#);
        let v = serde_json::parse(&h).unwrap();
        assert_eq!(v["predict"]["quarantined_pairs"].as_u64(), Some(1), "{h}");
        assert_eq!(
            v["predict"]["events"][0]["metric"].as_str(),
            Some("wall"),
            "{h}"
        );
        assert_eq!(
            s.cache().hits() + s.cache().misses(),
            s.simulate_requests() + s.baseline_fetches(),
        );
    }

    #[test]
    fn quarantined_fallbacks_book_obs_and_auditor_alike_on_both_paths() {
        // Regression: the inline path's quarantined leg told the auditor
        // about a fallback but not the obs counter, so `op=metrics`
        // under-counted `op=stats` by every inline-served fallback. One
        // ladder serves both paths now; both counts must move together,
        // whichever path answers and whether it hits or misses.
        let _series = obs_series();
        let s = faulted("fallback_obs", &plan("predict-bias"));
        let obs = || paxsim_obs::counter("serve.predict.fallbacks").get();
        let before = obs();
        s.handle_line(EP_CMP_PRED); // biased, audited, pair quarantined
        assert_eq!(s.predict_auditor().quarantined_pairs(), 1);
        assert_eq!(s.predict_auditor().fallbacks(), 0);
        // The audit cached the exact record: both of these are hits.
        let inline = s.try_hit(EP_CMP_PRED).expect("inline fallback hit");
        let worker = s.handle_line(EP_CMP_PRED);
        assert_eq!(inline, worker);
        assert!(!worker.contains("\"fidelity\""), "exact bytes: {worker}");
        assert_eq!(s.predict_auditor().fallbacks(), 2);
        assert_eq!(obs() - before, 2, "obs must count inline fallbacks too");
        // A fallback that misses books once, on the worker path only.
        s.handle_line(
            r#"{"op":"simulate","kernel":"ep","config":"CMP","class":"S","fidelity":"predicted"}"#,
        );
        assert_eq!(s.predict_auditor().quarantined_pairs(), 2);
        let other = r#"{"op":"simulate","kernel":"ep","config":"CMP","class":"S","trials":2,"fidelity":"fast"}"#;
        assert_eq!(s.try_hit(other), None, "cold: the inline path passes");
        assert_eq!(
            s.predict_auditor().fallbacks(),
            2,
            "a passed miss books nothing"
        );
        assert!(s.handle_line(other).contains("\"ok\":true"));
        assert_eq!(s.predict_auditor().fallbacks(), 3);
        assert_eq!(obs() - before, 3);
        assert_eq!(
            s.cache().hits() + s.cache().misses(),
            s.simulate_requests() + s.baseline_fetches(),
        );
    }

    #[test]
    fn deadline_maps_to_typed_reply() {
        // A 1 ms deadline with an injected 60 ms stall: the watchdog
        // flags the cell and the client sees a `deadline` error.
        let s = faulted("deadline", &plan("cell-slow:0:60:1"));
        let r = s.handle_line(r#"{"op":"simulate","kernel":"ep","config":"CMP","deadline_ms":1}"#);
        assert!(r.contains("\"error\":\"deadline\""), "{r}");
    }

    const EP_TUNE: &str =
        r#"{"op":"tune","kernel":"ep","configs":["CMP","CMT"],"schedules":["static"],"budget":16}"#;

    #[test]
    fn tune_matches_exhaustive_sweep_on_small_grid() {
        let s = service("tune_sweep");
        let reply = s.handle_line(EP_TUNE);
        let v = serde_json::parse(&reply).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(true), "{reply}");
        let best = v["tune"]["best_config"].as_str().unwrap().to_string();
        let best_speedup = v["tune"]["speedup"].as_f64().unwrap();
        assert_eq!(v["tune"]["fidelity"].as_str(), Some("exact"), "{reply}");
        // Exhaustive sweep of the same grid through the exact tier: the
        // search's winner must be the sweep's argmax, with the same score.
        // Tune normalizes config aliases to canonical paper names, so the
        // sweep labels go through the same resolution.
        let canon = |cfg: &str| {
            paxsim_core::hash::StudySpec::new("ep", cfg)
                .resolve()
                .unwrap()
                .spec
                .config
        };
        let mut sweep: Vec<(String, f64)> = ["CMP", "CMT"]
            .iter()
            .map(|cfg| {
                let r = s.handle_line(&format!(
                    r#"{{"op":"simulate","kernel":"ep","config":"{cfg}"}}"#
                ));
                let v = serde_json::parse(&r).unwrap();
                (
                    canon(cfg),
                    v["result"]["sides"][0]["speedup"]["mean"].as_f64().unwrap(),
                )
            })
            .collect();
        sweep.sort_by(|a, b| paxsim_core::tune::nan_last_cmp(b.1, a.1));
        assert_eq!(best, sweep[0].0, "tune winner must match the sweep");
        assert_eq!(best_speedup, sweep[0].1, "same engine, same score");
        // Tune cells are counter-neutral: the conservation law holds with
        // only the two sweep simulates on the right-hand side.
        assert_eq!(
            s.cache().hits() + s.cache().misses(),
            s.simulate_requests() + s.baseline_fetches(),
        );
    }

    #[test]
    fn tune_repeat_is_cached_hit_never_batched_and_byte_identical() {
        let s = service("tune_hit");
        let cold = s.handle_line(EP_TUNE);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        let computed = s.computed();
        let hot = s.handle_line(EP_TUNE);
        assert_eq!(cold, hot, "a replay over the cache must be byte-identical");
        assert_eq!(s.computed(), computed, "hit recomputed nothing");
        assert_eq!((s.tunes(), s.tune_hits(), s.tune_completed()), (2, 1, 1));
        assert_eq!(s.batches(), 0, "tune must never ride the batcher");
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        let v = serde_json::parse(&stats).unwrap();
        assert_eq!(v["tune"]["requests"].as_u64(), Some(2), "{stats}");
        assert_eq!(v["tune"]["hits"].as_u64(), Some(1), "{stats}");
        assert_eq!(
            v["simulate_requests"].as_u64(),
            Some(0),
            "tune books no simulate traffic: {stats}"
        );
        s.set_draining();
        assert_eq!(s.handle_line(EP_TUNE), cold, "a hit serves while draining");
    }

    #[test]
    fn finished_tune_is_a_hit_after_a_restart() {
        let dir = tmp("tune_restart");
        let open = || {
            Service::open(ServeConfig {
                cache_dir: dir.clone(),
                ..ServeConfig::default()
            })
            .unwrap()
        };
        let cold = open().handle_line(EP_TUNE);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        let s = open();
        assert_eq!(s.handle_line(EP_TUNE), cold, "restart must be invisible");
        assert_eq!((s.tune_hits(), s.computed()), (1, 0));
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(name.starts_with("shard-"), "{name} is not a cache shard");
        }
    }

    #[test]
    fn tune_degrades_like_a_put_when_appends_fail() {
        // Regression: every scored tune cell was also appended to a
        // journal of its own, and a failed append there answered
        // `"error":"internal"`. A tune's cells are cache puts, and a put
        // whose append fails degrades to the memory tier.
        let s = faulted("tune_append_fail", &plan("journal-fail:3"));
        let reply = s.handle_line(EP_TUNE);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let clean = service("tune_append_clean").handle_line(EP_TUNE);
        assert_eq!(reply, clean, "degraded cells must serve byte-identical");
        assert_eq!(s.cache().put_failures(), 3, "serial, CMP and CMT puts");
    }

    /// A named `op=stats` counter, as the wire reports it.
    fn stat(s: &Service, block: &str, key: &str) -> u64 {
        let stats = s.handle_line(r#"{"op":"stats"}"#);
        serde_json::parse(&stats).unwrap()[block][key]
            .as_u64()
            .unwrap()
    }

    #[test]
    fn every_refusal_reads_the_same_from_both_gated_tiers() {
        // The envelope is one thing: an exact miss and a tune search
        // refused for the same cause get the same typed line, and the
        // count behind `op=stats` and its `op=metrics` series each move
        // once per refused request. `cell-panic` only matters to the
        // quarantined row, which needs one failed computation per key to
        // trip a threshold-1 breaker; the other rows never reach a
        // computation.
        let _series = obs_series();
        let faults = plan("cell-panic:0:50");
        for (cause, max_queue, deadline, block, key) in [
            ("draining", 1, "", "admission", "rejected_draining"),
            ("overloaded", 0, "", "admission", "rejected_overload"),
            ("shed", 1, r#","deadline_ms":30"#, "degraded", "shed"),
            ("quarantined", 1, "", "degraded", "quarantined_rejections"),
        ] {
            let s = Service::open(ServeConfig {
                cache_dir: tmp(&format!("envelope_{cause}")),
                max_running: 1,
                max_queue,
                breaker_threshold: 1,
                breaker_cooldown_ms: 60_000,
                faults: faults.clone(),
                ..ServeConfig::default()
            })
            .unwrap();
            let lines = [
                format!(r#"{{"op":"simulate","kernel":"ep","config":"CMP"{deadline}}}"#),
                format!(r#"{{"op":"tune","kernel":"ep","configs":["CMP","CMT"]{deadline}}}"#),
            ];
            let _held = match cause {
                "draining" => {
                    s.set_draining();
                    None
                }
                "overloaded" | "shed" => Some(s.gate.admit(None).unwrap()),
                _ => {
                    for line in &lines {
                        let r = s.handle_line(line);
                        assert!(r.contains("\"error\":\"panic\""), "{cause}: {r}");
                    }
                    None
                }
            };
            let series = match cause {
                "draining" => "serve.admission.rejected_draining",
                "overloaded" => "serve.admission.rejected_overload",
                "shed" => "serve.admission.shed",
                _ => "serve.breaker.rejected",
            };
            let obs = || paxsim_obs::counter(series).get();
            let before = (stat(&s, block, key), obs());
            let [exact, tune] = lines.each_ref().map(|line| s.handle_line(line));
            assert!(exact.contains(&format!("\"error\":\"{cause}\"")), "{exact}");
            // The remaining cooldown is the one thing that differs
            // between two quarantined replies.
            let shape = |r: &str| match r.split_once("retry in ") {
                Some((head, tail)) => {
                    format!(
                        "{head}{}",
                        tail.trim_start_matches(|c: char| c.is_ascii_digit())
                    )
                }
                None => r.to_string(),
            };
            assert_eq!(shape(&exact), shape(&tune), "{cause}");
            let moved = (stat(&s, block, key) - before.0, obs() - before.1);
            assert_eq!(moved, (2, 2), "{cause}: op=stats and op=metrics alike");
        }
    }

    #[test]
    fn shed_requests_are_booked_in_obs_and_stats_alike() {
        // Regression: `op=tune` shed its search without telling the obs
        // counter, so `op=metrics` under-reported `op=stats`. One `admit`
        // books both, for every tier, per request.
        let _series = obs_series();
        let s = Service::open(ServeConfig {
            cache_dir: tmp("shed_obs"),
            max_running: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let obs = || paxsim_obs::counter("serve.admission.shed").get();
        let (obs_before, stats_before) = (obs(), stat(&s, "degraded", "shed"));
        let held = s.gate.admit(None).unwrap();
        for line in [
            r#"{"op":"simulate","kernel":"ep","config":"CMP","deadline_ms":30}"#,
            r#"{"op":"tune","kernel":"ep","configs":["CMP","CMT"],"deadline_ms":30}"#,
        ] {
            let r = s.handle_line(line);
            assert!(r.contains("\"error\":\"shed\""), "{r}");
        }
        drop(held);
        assert_eq!(stat(&s, "degraded", "shed") - stats_before, 2);
        assert_eq!(obs() - obs_before, 2, "obs must count the shed search too");
    }

    #[test]
    fn quarantined_tunes_are_booked_in_obs_and_breaker_alike() {
        // Regression: only the exact tier told the obs counter about a
        // quarantine rejection. `Breaker::check` now books the one
        // `Tally` that `op=health` and `op=metrics` both read.
        let _series = obs_series();
        let faults = plan("tune-abort:1:1");
        let s = Service::open(ServeConfig {
            cache_dir: tmp("tune_quarantine_obs"),
            breaker_threshold: 1,
            breaker_cooldown_ms: 60_000,
            faults,
            ..ServeConfig::default()
        })
        .unwrap();
        let obs = || paxsim_obs::counter("serve.breaker.rejected").get();
        let (obs_before, atomic_before) = (obs(), s.breaker().rejected());
        let tripped = s.handle_line(EP_TUNE);
        assert!(tripped.contains("\"error\":\"panic\""), "{tripped}");
        assert_eq!(s.breaker().trips(), 1);
        let refused = s.handle_line(EP_TUNE);
        assert!(refused.contains("\"error\":\"quarantined\""), "{refused}");
        assert_eq!(s.breaker().rejected() - atomic_before, 1);
        assert_eq!(obs() - obs_before, 1, "obs must count a quarantined tune");
    }

    #[test]
    fn tune_resumes_from_aborted_search_without_reevaluating_cells() {
        // A `tune-abort` fault kills the search on its second evaluation
        // — after the first cell is stored. The retry must find that cell
        // in the cache (no second evaluation) and render byte-for-byte
        // what an uninterrupted service renders.
        let killed = faulted("tune_abort", &plan("tune-abort:2:1"));
        let r = killed.handle_line(EP_TUNE);
        assert!(r.contains("\"error\":\"panic\""), "{r}");
        assert!(r.contains("tune-abort"), "{r}");
        assert_eq!(killed.tune_completed(), 0);
        // The plan's one use is spent: the retry runs clean.
        let resumed = killed.handle_line(EP_TUNE);
        assert!(resumed.contains("\"ok\":true"), "{resumed}");
        assert_eq!(killed.tune_completed(), 1);
        assert_eq!(killed.tune_resumes(), 1, "replayed cells mark a resume");
        let fresh = service("tune_fresh");
        let uninterrupted = fresh.handle_line(EP_TUNE);
        assert_eq!(
            resumed, uninterrupted,
            "resume must be invisible in the reply"
        );
        assert_eq!(fresh.tune_resumes(), 0, "nothing to replay on a cold run");
    }
}
