//! `serve_hot` and `serve_mixed`: an in-process `paxsim-serve` daemon on
//! loopback TCP, driven closed-loop — every client sends its next request
//! only after the previous reply, as scripts and `paxsim-cli` do.
//!
//! `serve_hot` asks only for what is cached, so the engine does nothing
//! and frame → parse → resolve → hash → probe → render → write is the
//! whole cost. `serve_mixed` puts a stream of never-seen requests beside
//! a stream of cached ones, so computation, cache puts, journal appends
//! and worker threads run beside the hit path.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use paxsim_core::configs::all_configs;
use paxsim_core::store::TraceKey;
use paxsim_machine::config::MachineConfig;
use paxsim_machine::sim::{simulate, JobSpec};
use paxsim_nas::{all_kernels, kernel_by_name, Class};
use paxsim_omp::schedule::Schedule;
use paxsim_predict::{predict_program, profile_program};
use paxsim_serve::frame::{FrameBuffer, MAX_FRAME_BYTES};
use paxsim_serve::protocol::{self, Request};
use paxsim_serve::{ResultCache, ServeConfig, Server, Service};
use serde::Value;

use crate::golden::{digest, Goldens};
use crate::host::{self, Rng, TempDir};
use crate::metrics::{median, p50_and_hi, percentile, Outcome};
use crate::spans::Tracer;
use crate::Ctx;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Mixed,
}

/// The cached grid: every pair is a class T point the daemon answers in
/// milliseconds cold and microseconds warm.
const KERNELS: [&str; 4] = ["ep", "is", "cg", "bt"];
const CONFIGS: [&str; 3] = ["Serial", "CMP", "CMT"];

/// Load-generating connections (the host has two cores; the daemon's
/// reactor and workers need their share of them).
const CONNECTIONS: usize = 2;

/// Window width of the hot phase: ≈ 100 replies, and about as long as the
/// host's interruptions.
const HOT_WINDOW_S: f64 = 0.01;

/// Fresh replies re-derived on an independent daemon after the run.
const VERIFIED_FRESH: usize = 8;

fn grid_pairs() -> Vec<(&'static str, &'static str)> {
    KERNELS
        .iter()
        .flat_map(|k| CONFIGS.iter().map(move |c| (*k, *c)))
        .collect()
}

fn exact_line(kernel: &str, config: &str) -> String {
    format!(r#"{{"op":"simulate","kernel":"{kernel}","config":"{config}"}}"#)
}

fn predicted_line(kernel: &str, config: &str) -> String {
    format!(r#"{{"op":"simulate","kernel":"{kernel}","config":"{config}","fidelity":"predicted"}}"#)
}

const ADMIN_LINES: [&str; 3] = [
    r#"{"op":"stats"}"#,
    r#"{"op":"health"}"#,
    r#"{"op":"metrics"}"#,
];

/// What a request is, for sampling and span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    Hit,
    PredictedHit,
    Admin,
    Miss,
    FreshPredict,
    Tune,
}

impl Slot {
    fn span_name(self) -> &'static str {
        match self {
            Slot::Hit => "serve.roundtrip.hit",
            Slot::PredictedHit => "serve.roundtrip.predicted_hit",
            Slot::Admin => "serve.roundtrip.admin",
            Slot::Miss => "serve.roundtrip.miss",
            Slot::FreshPredict => "serve.roundtrip.fresh_predict",
            Slot::Tune => "serve.roundtrip.tune",
        }
    }
}

/// One request of a stream: what to send, and the exact bytes expected
/// back when they are known beforehand.
struct Req {
    slot: Slot,
    line: String,
    expected: Option<Arc<str>>,
}

/// A cached request line and its steady-state reply.
#[derive(Clone)]
struct Cached {
    line: String,
    reply: Arc<str>,
}

/// The daemon under test, in this process, with its cache in a fresh
/// directory inside the checkout.
struct Daemon {
    service: Arc<Service>,
    server: Server,
    addr: String,
    dir: TempDir,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let dir = TempDir::new("serve").map_err(|e| format!("temp dir: {e}"))?;
        let service = Service::open(ServeConfig {
            cache_dir: dir.path().to_path_buf(),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("open service: {e}"))?;
        // `Service::open` turns paxsim's own metrics and spans on; the
        // numbers defined here are measured with them off.
        paxsim_obs::set_enabled(false);
        let service = Arc::new(service);
        let server = Server::start(service.clone(), Some("127.0.0.1:0"), None)
            .map_err(|e| format!("start server: {e}"))?;
        let addr = server
            .tcp_addr()
            .ok_or("server bound no TCP address")?
            .to_string();
        Ok(Daemon {
            service,
            server,
            addr,
            dir,
        })
    }

    /// Drain, join every thread, remove the cache directory — and keep
    /// the service itself until the process exits. `paxsim-predict` caches
    /// region profiles by region *address*: once a daemon's `TraceStore`
    /// is dropped, a later daemon's traces can land on the same addresses
    /// and be answered with the earlier regions' profiles, which changes
    /// which pairs the auditor quarantines and so what the predicted grid
    /// replies. Never freeing a store keeps every address unique.
    fn stop(self) -> bool {
        keep_until_exit(self.service.clone());
        self.server.shutdown(Duration::from_secs(30))
    }

    fn journal_bytes(&self) -> u64 {
        std::fs::read_dir(self.dir.path())
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

fn keep_until_exit(service: Arc<Service>) {
    static RETIRED: Mutex<Vec<Arc<Service>>> = Mutex::new(Vec::new());
    RETIRED
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(service);
}

/// One persistent connection, one request in flight.
struct Client {
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes is a failed request, not a hung run.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream),
            reply: String::new(),
        })
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<&str> {
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }
}

fn is_ok(reply: &str) -> bool {
    reply.starts_with(r#"{"ok":true"#)
}

/// Set-up, once: start a daemon, compute the grid at both fidelities over
/// the wire, then ask again for the steady-state replies (a pair whose
/// first prediction fails its audit is answered exact from then on) and
/// check those against the goldens.
fn start_warm(
    goldens: &mut Goldens,
    o: &mut Outcome,
) -> Result<(Daemon, Vec<Cached>, Vec<Cached>), String> {
    let daemon = Daemon::start()?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let mut warm = |lines: Vec<String>, o: &mut Outcome| -> Result<Vec<Cached>, String> {
        for line in &lines {
            let reply = client
                .roundtrip(line)
                .map_err(|e| format!("warming {line}: {e}"))?;
            o.check(is_ok(reply), || format!("cold reply to {line}: {reply}"));
        }
        lines
            .into_iter()
            .map(|line| {
                let reply = client
                    .roundtrip(&line)
                    .map_err(|e| format!("re-asking {line}: {e}"))?;
                let ok = goldens.check(&format!("serve:{line}"), digest(reply));
                o.check(ok, || {
                    format!("reply to {line} differs from golden: {reply}")
                });
                let reply: Arc<str> = Arc::from(reply);
                Ok(Cached { line, reply })
            })
            .collect()
    };
    let exact = warm(
        grid_pairs().iter().map(|(k, c)| exact_line(k, c)).collect(),
        o,
    )?;
    let predicted = warm(
        grid_pairs()
            .iter()
            .map(|(k, c)| predicted_line(k, c))
            .collect(),
        o,
    )?;
    Ok((daemon, exact, predicted))
}

/// What a closed-loop stream measured.
#[derive(Default)]
struct Stream {
    /// (slot, client-side milliseconds, seconds into the stream at which
    /// the reply was complete) per reply.
    samples: Vec<(Slot, f64, f64)>,
    failed: Vec<String>,
    /// Fresh exact requests with their replies, for later verification.
    fresh: Vec<(String, String)>,
    tune_cells: u64,
    wall_s: f64,
}

impl Stream {
    /// Replies per second.
    fn rps(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s
    }

    fn ms_of(&self, keep: impl Fn(Slot) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(s, ..)| keep(*s))
            .map(|(_, ms, _)| *ms)
            .collect()
    }
}

/// The hot phase cut into windows of [`HOT_WINDOW_S`], of which the
/// busiest hundredth is kept: replies per second in those windows, and the
/// median of their reply times, ms. The host this was sized on takes the
/// CPU away, or slows it by a busy hyperthread beside it, for hundredths of
/// a second at a time and for a share of the time that drifts from a tenth
/// to a half within minutes; the windows it left alone are the ones that
/// repeat. Over forty runs in half an hour the median over all windows
/// ranged over 39 % and these over 17 % (rate) and 13 % (reply time).
fn quietest_windows(streams: &[Stream], seconds: f64) -> (f64, f64) {
    let n = ((seconds / HOT_WINDOW_S) as usize).max(1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (_, ms, done_s) in streams.iter().flat_map(|s| &s.samples) {
        // A reply that completes after the deadline belongs to no window.
        if let Some(w) = windows.get_mut((*done_s / HOT_WINDOW_S) as usize) {
            w.push(*ms);
        }
    }
    windows.sort_by_key(|w| std::cmp::Reverse(w.len()));
    let kept = (n / 100).max(1);
    let mut ms: Vec<f64> = windows[..kept].iter().flatten().copied().collect();
    ms.sort_by(f64::total_cmp);
    (
        ms.len() as f64 / (kept as f64 * HOT_WINDOW_S),
        percentile(&ms, 50),
    )
}

/// Drive one connection closed-loop until `deadline`, asking `next` for
/// each request.
fn drive(
    addr: &str,
    deadline: Instant,
    tracer: &mut Tracer,
    mut next: impl FnMut(u64) -> Req,
) -> Stream {
    let mut s = Stream::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            s.failed.push(format!("connect: {e}"));
            return s;
        }
    };
    let started = Instant::now();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let req = next(i);
        let (reply, secs) = tracer.call(req.slot.span_name(), i, || {
            client.roundtrip(&req.line).map(str::to_owned)
        });
        match reply {
            Ok(reply) => {
                let ok = match &req.expected {
                    Some(expected) => reply == **expected,
                    None => is_ok(&reply),
                };
                if !ok {
                    s.failed.push(format!("reply to {}: {reply}", req.line));
                }
                if req.slot == Slot::Tune {
                    s.tune_cells += serde_json::parse(&reply)
                        .ok()
                        .and_then(|v| v["tune"]["evaluated"].as_u64())
                        .unwrap_or(0);
                }
                if req.slot == Slot::Miss && s.fresh.len() < VERIFIED_FRESH {
                    s.fresh.push((req.line, reply));
                }
                s.samples
                    .push((req.slot, secs * 1e3, started.elapsed().as_secs_f64()));
            }
            Err(e) => {
                s.failed.push(format!("I/O on {}: {e}", req.line));
                break;
            }
        }
        i += 1;
    }
    s.wall_s = started.elapsed().as_secs_f64();
    s
}

/// The cached grid, round-robin from a seed-chosen start.
fn hit_stream(cached: &[Cached], start: usize) -> impl FnMut(u64) -> Req + '_ {
    move |i| {
        let c = &cached[(start + i as usize) % cached.len()];
        Req {
            slot: Slot::Hit,
            line: c.line.clone(),
            expected: Some(c.reply.clone()),
        }
    }
}

/// The read stream of `serve_mixed`: a seed-shuffled cycle of 50 — 45
/// cached exact hits, 4 cached predicted hits, 1 of stats/health/metrics.
fn read_stream<'a>(
    exact: &'a [Cached],
    predicted: &'a [Cached],
    seed: u64,
) -> impl FnMut(u64) -> Req + 'a {
    let mut cycle: Vec<Slot> = [
        vec![Slot::Hit; 45],
        vec![Slot::PredictedHit; 4],
        vec![Slot::Admin],
    ]
    .concat();
    Rng::new(seed).shuffle(&mut cycle);
    move |i| {
        let (round, pos) = ((i / 50) as usize, (i % 50) as usize);
        let slot = cycle[pos];
        let pick = |set: &'a [Cached]| &set[(round * 50 + pos) % set.len()];
        match slot {
            Slot::Hit | Slot::PredictedHit => {
                let c = pick(if slot == Slot::Hit { exact } else { predicted });
                Req {
                    slot,
                    line: c.line.clone(),
                    expected: Some(c.reply.clone()),
                }
            }
            _ => Req {
                slot: Slot::Admin,
                line: ADMIN_LINES[round % ADMIN_LINES.len()].to_string(),
                expected: None,
            },
        }
    }
}

/// Pairs of the grid, which the fresh stream walks.
const FRESH_PAIRS: usize = KERNELS.len() * CONFIGS.len();

/// Requests after which the fresh stream has asked every pair for every
/// slot of its cycle of 16 exactly once.
const FRESH_CYCLE: u64 = 16 * FRESH_PAIRS as u64;

/// Which pair of its seed-shuffled grid the fresh stream's `i`-th request
/// asks for.
fn fresh_pair(i: u64) -> usize {
    (i + i / 48) as usize % FRESH_PAIRS
}

/// The fresh stream of `serve_mixed`: a seed-shuffled cycle of 16 — 12
/// exact misses (`trials:2`: one quiet and one jittered engine run, a
/// cache put and a journal append each), 3 fresh predictions, 1 `op=tune`
/// over a 2 × 2 grid. The seed-shuffled grid is walked beside it, shifted
/// by one pair every 48 requests, so that every 192 requests ask every
/// pair for every slot of the cycle exactly once: the seed changes the
/// order of the work and never its mix (a miss costs 3 ms on `ep` and
/// 40 ms on `cg`). Every request carries a `jitter` value this daemon has
/// not seen, so none is answered from cache.
fn fresh_stream(seed: u64) -> impl FnMut(u64) -> Req {
    debug_assert_eq!(grid_pairs().len(), FRESH_PAIRS);
    let mut cycle: Vec<Slot> = [
        vec![Slot::Miss; 12],
        vec![Slot::FreshPredict; 3],
        vec![Slot::Tune],
    ]
    .concat();
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut cycle);
    let mut pairs = grid_pairs();
    rng.shuffle(&mut pairs);
    move |i| {
        let slot = cycle[(i % 16) as usize];
        let (kernel, config) = pairs[fresh_pair(i)];
        // Unique within the run, and disjoint from every other seed's.
        let jitter = 1_000 + seed % 1_000 + 1_000 * i;
        let line = match slot {
            Slot::Miss => format!(
                r#"{{"op":"simulate","kernel":"{kernel}","config":"{config}","trials":2,"jitter":{jitter}}}"#
            ),
            Slot::FreshPredict => format!(
                r#"{{"op":"simulate","kernel":"{kernel}","config":"{config}","jitter":{jitter},"fidelity":"predicted"}}"#
            ),
            _ => format!(
                r#"{{"op":"tune","kernel":"{kernel}","configs":["CMP","CMT"],"schedules":["static","dynamic,2"],"budget":16,"trials":2,"jitter":{jitter}}}"#
            ),
        };
        Req {
            slot,
            line,
            expected: None,
        }
    }
}

/// The daemon's own counters, scraped over the wire like any client.
struct Stats {
    shard_hits: u64,
    shard_misses: u64,
    mem_hits: u64,
    disk_hits: u64,
    simulate_requests: u64,
    baseline_fetches: u64,
    computed: u64,
    rejected: u64,
    batches: u64,
    merged: u64,
    audits: u64,
    quarantined_pairs: u64,
    fallbacks: u64,
}

impl Stats {
    fn scrape(addr: &str) -> Option<Stats> {
        let mut client = Client::connect(addr).ok()?;
        let v = serde_json::parse(client.roundtrip(ADMIN_LINES[0]).ok()?).ok()?;
        let n = |v: &Value| v.as_u64().unwrap_or(0);
        let Value::Array(shards) = &v["cache"]["shards"] else {
            return None;
        };
        Some(Stats {
            shard_hits: shards
                .iter()
                .map(|s| n(&s["mem_hits"]) + n(&s["disk_hits"]))
                .sum(),
            shard_misses: shards.iter().map(|s| n(&s["misses"])).sum(),
            mem_hits: n(&v["cache"]["mem_hits"]),
            disk_hits: n(&v["cache"]["disk_hits"]),
            simulate_requests: n(&v["simulate_requests"]),
            baseline_fetches: n(&v["baseline_fetches"]),
            computed: n(&v["computed"]),
            rejected: n(&v["admission"]["rejected_overload"])
                + n(&v["admission"]["rejected_draining"])
                + n(&v["degraded"]["shed"]),
            batches: n(&v["batch"]["batches"]),
            merged: n(&v["batch"]["merged"]),
            audits: n(&v["predict"]["audits"]),
            quarantined_pairs: n(&v["predict"]["quarantined_pairs"]),
            fallbacks: n(&v["predict"]["fallbacks"]),
        })
    }

    /// The cache conservation law: every simulate request and baseline
    /// fetch books exactly one tier counter in exactly one shard.
    fn conserved(&self) -> bool {
        self.shard_hits + self.shard_misses == self.simulate_requests + self.baseline_fetches
    }

    /// `predicted_sent`: requests this run sent at `fidelity: predicted`.
    fn record(&self, predicted_sent: usize, o: &mut Outcome) {
        let m = &mut o.metrics;
        let lookups = self.shard_hits + self.shard_misses;
        m.set(
            "serve.cache.hit_ratio",
            self.shard_hits as f64 / lookups.max(1) as f64,
        );
        m.set("serve.cache.mem_hits", self.mem_hits as f64);
        m.set("serve.cache.disk_hits", self.disk_hits as f64);
        m.set("serve.cache.misses", self.shard_misses as f64);
        m.set("serve.service.computed", self.computed as f64);
        m.set(
            "serve.service.baseline_fetches",
            self.baseline_fetches as f64,
        );
        m.set("serve.service.rejected", self.rejected as f64);
        m.set(
            "serve.service.conservation_ok",
            f64::from(u8::from(self.conserved())),
        );
        m.set("serve.batch.batches", self.batches as f64);
        m.set("serve.batch.merged", self.merged as f64);
        m.set("predict.audits", self.audits as f64);
        m.set("predict.quarantined_pairs", self.quarantined_pairs as f64);
        m.set(
            "predict.fallback_ratio",
            self.fallbacks as f64 / predicted_sent.max(1) as f64,
        );
    }
}

/// Walk cached request lines through each public stage of the hit path,
/// then through `try_hit`, `handle_line` and the socket: one span per
/// call, the spans of one request line sharing its id. Each stage runs
/// over all the lines before the next starts, so every stage is timed
/// warm, as `try_hit` runs it; stage costs are medians. Probes go to a
/// scratch cache holding the same records, so the daemon's conservation
/// law is not disturbed by lookups no request made.
fn walk_hit_path(
    daemon: &Daemon,
    cached: &[Cached],
    tracer: &mut Tracer,
    iterations: usize,
    o: &mut Outcome,
) {
    let opened = TempDir::new("scratch").ok().and_then(|dir| {
        let cache = ResultCache::open(dir.path(), 256, paxsim_serve::cache::DEFAULT_SHARDS).ok()?;
        Some((dir, cache, Client::connect(&daemon.addr).ok()?))
    });
    let Some((_scratch_dir, scratch, mut client)) = opened else {
        o.check(false, || "scratch cache or walk connection".into());
        return;
    };
    /// Run one stage over every request, returning outputs and nanoseconds.
    fn stage<T>(
        tracer: &mut Tracer,
        name: &'static str,
        n: usize,
        mut f: impl FnMut(usize) -> T,
    ) -> (Vec<T>, f64) {
        let (outs, ns): (Vec<T>, Vec<f64>) = (0..n)
            .map(|i| {
                let (out, secs) = tracer.call(name, i as u64, || f(i));
                (out, secs * 1e9)
            })
            .unzip();
        (outs, median(&ns))
    }
    let n = iterations;
    let at = |i: usize| &cached[i % cached.len()];
    tracer.span("bench.serve.walk", 0, |tracer| {
        let (puts, put_ns) = stage(tracer, "serve.cache.put", cached.len(), |i| {
            let Ok(Request::Simulate { spec, .. }) = protocol::parse_request(&cached[i].line)
            else {
                return false;
            };
            spec.resolve().is_ok_and(|resolved| {
                let hash = resolved.content_hash();
                daemon
                    .service
                    .cache()
                    .peek(hash)
                    .is_some_and(|record| scratch.put(hash, record.sides).is_ok())
            })
        });
        o.check(puts.iter().all(|ok| *ok), || "scratch cache puts".into());
        o.metrics.set("serve.cache.put_us", put_ns / 1e3);

        let (frames, frame_ns) = stage(tracer, "serve.frame.next_frame", n, |i| {
            let mut fb = FrameBuffer::new(MAX_FRAME_BYTES);
            fb.push(at(i).line.as_bytes());
            fb.push(b"\n");
            fb.next_frame().and_then(Result::ok).unwrap_or_default()
        });
        let (specs, parse_ns) =
            stage(
                tracer,
                "serve.protocol.parse_request",
                n,
                |i| match protocol::parse_request(&frames[i]) {
                    Ok(Request::Simulate { spec, .. }) => Some(spec),
                    _ => None,
                },
            );
        let (resolved, resolve_ns) = stage(tracer, "core.hash.resolve", n, |i| {
            specs[i].as_ref().and_then(|spec| spec.resolve().ok())
        });
        let Some(resolved) = resolved.into_iter().collect::<Option<Vec<_>>>() else {
            o.check(false, || {
                "a cached request line no longer parses and resolves".into()
            });
            return;
        };
        let (hashes, hash_ns) = stage(tracer, "core.hash.content_hash", n, |i| {
            resolved[i].content_hash()
        });
        let (records, probe_ns) =
            stage(tracer, "serve.cache.probe", n, |i| scratch.probe(hashes[i]));
        let (rendered, render_ns) = stage(tracer, "serve.protocol.render_result", n, |i| {
            records[i]
                .as_ref()
                .map(|record| protocol::render_result(hashes[i], &resolved[i].spec, record))
        });
        let (inline, try_hit_ns) = stage(tracer, "serve.service.try_hit", n, |i| {
            daemon.service.try_hit(&at(i).line)
        });
        let (handled, handle_ns) = stage(tracer, "serve.service.handle_line", n, |i| {
            daemon.service.handle_line(&at(i).line)
        });
        let (wired, wire_ns) = stage(tracer, "serve.server.roundtrip", n, |i| {
            client.roundtrip(&at(i).line).map(str::to_owned).ok()
        });
        for i in 0..n {
            let want = Some(&*at(i).reply);
            let same = rendered[i].as_deref() == want
                && inline[i].as_deref() == want
                && Some(handled[i].as_str()) == want
                && wired[i].as_deref() == want;
            o.check(same, || {
                format!("hit path stages disagree on {}", at(i).line)
            });
        }
        let m = &mut o.metrics;
        m.set("serve.frame.ns_per_line", frame_ns);
        m.set("serve.protocol.parse_ns", parse_ns);
        m.set("core.hash.resolve_ns", resolve_ns);
        m.set("core.hash.content_hash_ns", hash_ns);
        m.set("serve.cache.probe_ns", probe_ns);
        m.set("serve.protocol.render_ns", render_ns);
        m.set("serve.service.try_hit_ns", try_hit_ns);
        m.set("serve.service.handle_line_hit_ns", handle_ns);
        m.set(
            "serve.service.hit_unattributed_ns",
            try_hit_ns - (parse_ns + resolve_ns + hash_ns + probe_ns + render_ns),
        );
        m.set(
            "serve.server.wire_overhead_us",
            (wire_ns - try_hit_ns) / 1e3,
        );
        let bytes: Vec<f64> = cached.iter().map(|c| c.reply.len() as f64).collect();
        m.set("serve.protocol.reply_bytes", median(&bytes));
    });
}

/// One connection asking for the cached grid for `secs`.
fn one_connection(
    daemon: &Daemon,
    cached: &[Cached],
    secs: f64,
    tracer: &mut Tracer,
    o: &mut Outcome,
) -> Stream {
    let (s, _) = tracer.span("bench.serve.closed_loop", 0, |tracer| {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        drive(&daemon.addr, deadline, tracer, hit_stream(cached, 0))
    });
    absorb_failures(o, &s);
    s
}

fn absorb_failures(o: &mut Outcome, s: &Stream) {
    for _ in 0..s.samples.len().saturating_sub(s.failed.len()) {
        o.check(true, String::new);
    }
    for f in &s.failed {
        o.check(false, || f.clone());
    }
}

/// Time `profile_program` and `predict_program` on the grid's class T
/// traces, and measure the predictor's p90 wall-clock error over every
/// kernel × Table 1 configuration × {static, dynamic,2} — a deterministic
/// simulated statistic, checked against its golden.
fn predictor_layers(daemon: &Daemon, goldens: &mut Goldens, o: &mut Outcome) {
    let machine = MachineConfig::paxville_smp();
    let line_bytes = machine.l1d.line as u64;
    let dynamic2: Schedule = "dynamic,2".parse().expect("dynamic,2 is a schedule clause");
    let grid_kernels: Vec<_> = KERNELS.iter().filter_map(|k| kernel_by_name(k)).collect();
    let (mut extract_ms, mut eval_us, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    for kernel in all_kernels() {
        for config in all_configs() {
            for schedule in [Schedule::Static, dynamic2] {
                let trace = daemon.service.store().get(TraceKey {
                    kernel,
                    class: Class::T,
                    nthreads: config.threads,
                    schedule,
                });
                let t = Instant::now();
                let profile = std::hint::black_box(profile_program(&trace, line_bytes));
                let extract = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let predicted =
                    std::hint::black_box(predict_program(&profile, &machine, &config.contexts));
                let eval = t.elapsed().as_secs_f64();
                if grid_kernels.contains(&kernel) && schedule == Schedule::Static {
                    extract_ms.push(extract * 1e3);
                    eval_us.push(eval * 1e6);
                }
                let exact = simulate(
                    &machine,
                    vec![JobSpec::pinned(trace, config.contexts.clone())],
                );
                let exact = exact.wall_cycles as f64;
                errors.push((predicted.wall_cycles - exact).abs() / exact);
            }
        }
    }
    errors.sort_by(f64::total_cmp);
    let p90 = percentile(&errors, 90);
    o.metrics
        .set("predict.profile.extract_ms", median(&extract_ms));
    o.metrics.set("predict.model.eval_us", median(&eval_us));
    o.metrics.set("predict.wall_err_p90", p90);
    let ok = goldens.check_value("value:predict_wall_err_p90", p90);
    o.check(ok, || {
        format!(
            "predict_wall_err_p90 {p90} over {} pairs differs from golden",
            errors.len()
        )
    });
}

/// Re-derive a few fresh replies on an independent daemon (its own empty
/// cache, no sockets): the wire reply must be byte-identical to what the
/// service computes from scratch.
fn verify_fresh(fresh: &[(String, String)], o: &mut Outcome) {
    let Ok(dir) = TempDir::new("verify") else {
        o.check(false, || "verification directory".into());
        return;
    };
    let reference = Service::open(ServeConfig {
        cache_dir: dir.path().to_path_buf(),
        ..ServeConfig::default()
    });
    paxsim_obs::set_enabled(false);
    match reference {
        Ok(reference) => {
            for (line, reply) in fresh {
                let again = reference.handle_line(line);
                o.check(again == *reply, || {
                    format!("fresh reply to {line} is not reproducible")
                });
            }
            keep_until_exit(Arc::new(reference));
        }
        Err(e) => o.check(false, || format!("verification service: {e}")),
    }
}

pub fn run(kind: Kind, ctx: &Ctx, goldens: &mut Goldens) -> Outcome {
    let mut o = Outcome::default();
    let name = match kind {
        Kind::Hot => "serve_hot",
        Kind::Mixed => "serve_mixed",
    };

    // Set-up several times (it is short), keeping the last daemon.
    let repeats = if ctx.quick || ctx.traced { 1 } else { 5 };
    let mut setups = Vec::new();
    let mut warm: Option<(Daemon, Vec<Cached>, Vec<Cached>)> = None;
    for _ in 0..repeats {
        if let Some((daemon, ..)) = warm.take() {
            let drained = Daemon::stop(daemon);
            o.check(drained, || "set-up daemon did not drain".into());
        }
        let t = Instant::now();
        match start_warm(goldens, &mut o) {
            Ok(w) => warm = Some(w),
            Err(e) => {
                o.check(false, || e);
                return o;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let (daemon, exact, predicted) = warm.expect("at least one set-up ran");
    let seconds = ctx.seconds as f64;
    let mut tracer = Tracer::new(ctx.traced);
    // Set-up asked for every predicted line twice.
    let mut predicted_sent = 2 * predicted.len();

    if !ctx.traced {
        host::wait_for_quiet_cpu();
    }
    match (kind, ctx.traced) {
        (Kind::Hot, false) => {
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let started = Instant::now();
            let streams: Vec<Stream> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CONNECTIONS)
                    .map(|c| {
                        let (addr, exact) = (&daemon.addr, &exact);
                        let start =
                            (ctx.seed as usize + c * exact.len() / CONNECTIONS) % exact.len();
                        scope.spawn(move || {
                            drive(
                                addr,
                                deadline,
                                &mut Tracer::new(false),
                                hit_stream(exact, start),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            let wall = started.elapsed().as_secs_f64();
            streams.iter().for_each(|s| absorb_failures(&mut o, s));
            let replies: usize = streams.iter().map(|s| s.samples.len()).sum();
            let (rate, p50) = quietest_windows(&streams, seconds);
            o.metrics.set("work_per_s", rate);
            o.metrics.set("wait_ms", p50);
            let mut all: Vec<f64> = streams.iter().flat_map(|s| s.ms_of(|_| true)).collect();
            let (all_p50, all_hi, pct) = p50_and_hi(&mut all);
            o.notes.push(format!(
                "{replies} replies over {CONNECTIONS} closed-loop connections in {wall:.2} s, every one compared with its golden bytes; reported: rate and median reply time of the busiest hundredth of the {HOT_WINDOW_S} s windows; over the whole phase (not gated: it is the host's share as much as the program's) {:.0}/s, p50 {all_p50:.4} ms, p{pct} {all_hi:.4} ms",
                replies as f64 / wall
            ));
        }
        (Kind::Hot, true) => {
            walk_hit_path(
                &daemon,
                &exact,
                &mut tracer,
                if ctx.quick { 120 } else { 1_200 },
                &mut o,
            );
            // One connection, the same section three ways, twice over.
            let section = seconds / 8.0;
            let (mut plain, mut traced, mut obs) = (Vec::new(), Vec::new(), Vec::new());
            let (mut inline, mut plain_ms) = (0.0, Vec::new());
            for _ in 0..2 {
                tracer.set_on(false);
                let s = one_connection(&daemon, &exact, section, &mut tracer, &mut o);
                plain.push(s.rps());
                plain_ms.extend(s.ms_of(|_| true));
                tracer.set_on(true);
                traced.push(one_connection(&daemon, &exact, section, &mut tracer, &mut o).rps());
                tracer.set_on(false);
                paxsim_obs::set_enabled(true);
                let before = paxsim_obs::counter("serve.inline_hits").get();
                let requests_before = paxsim_obs::counter("serve.requests").get();
                obs.push(one_connection(&daemon, &exact, section, &mut tracer, &mut o).rps());
                let answered = paxsim_obs::counter("serve.requests").get() - requests_before;
                inline = (paxsim_obs::counter("serve.inline_hits").get() - before) as f64
                    / answered.max(1) as f64;
                paxsim_obs::set_enabled(false);
            }
            tracer.set_on(true);
            o.metrics.set("serve.server.hit_rps_1conn", median(&plain));
            plain_ms.sort_by(f64::total_cmp);
            o.metrics.set(
                "serve.server.hit_p95_us_1conn",
                percentile(&plain_ms, 95) * 1e3,
            );
            o.metrics.set(
                "bench.trace_overhead_ratio",
                median(&plain) / median(&traced),
            );
            o.metrics
                .set("obs.overhead_ratio.serve", median(&plain) / median(&obs));
            o.metrics.set("serve.server.inline_hit_ratio", inline);
        }
        (Kind::Mixed, _) => {
            let secs = if ctx.traced { seconds * 0.6 } else { seconds };
            let deadline = Instant::now() + Duration::from_secs_f64(secs);
            let origin = tracer.origin();
            let (read, fresh) = std::thread::scope(|scope| {
                let (addr, exact, predicted) = (&daemon.addr, &exact, &predicted);
                let reader = scope.spawn(move || {
                    let mut t = Tracer::with_origin(ctx.traced, origin);
                    let (s, _) = t.span("bench.serve.read_stream", 0, |t| {
                        drive(addr, deadline, t, read_stream(exact, predicted, ctx.seed))
                    });
                    (s, t)
                });
                let mut t = Tracer::with_origin(ctx.traced, origin);
                let (fresh, _) = t.span("bench.serve.fresh_stream", 0, |t| {
                    drive(addr, deadline, t, fresh_stream(ctx.seed))
                });
                let (read, read_tracer) = reader.join().expect("read stream thread");
                tracer.absorb(read_tracer);
                tracer.absorb(t);
                (read, fresh)
            });
            absorb_failures(&mut o, &read);
            absorb_failures(&mut o, &fresh);
            predicted_sent += read.ms_of(|s| s == Slot::PredictedHit).len()
                + fresh.ms_of(|s| s == Slot::FreshPredict).len();
            verify_fresh(&fresh.fresh, &mut o);
            let mut misses = fresh.ms_of(|s| s == Slot::Miss);
            let (miss_p50, miss_hi, miss_pct) = p50_and_hi(&mut misses);
            let mut hits = read.ms_of(|s| s != Slot::Admin);
            if !ctx.traced {
                // Every kind of request (what it is, which pair it asks
                // for) at the fastest it was answered: a neighbour on the
                // host only ever adds time, and over ten runs the median of
                // all misses spread 21 % where this spread 10 %.
                let mut fastest = std::collections::BTreeMap::<(Slot, usize), f64>::new();
                for (i, (slot, ms, _)) in fresh.samples.iter().enumerate() {
                    let at = fastest.entry((*slot, fresh_pair(i as u64))).or_insert(*ms);
                    *at = at.min(*ms);
                }
                // One 192-request cycle asks for every kind in the stream's
                // own proportions; kinds a short run never reached are left out.
                let mut kinds = fresh_stream(ctx.seed);
                let cycle: Vec<f64> = (0..FRESH_CYCLE)
                    .filter_map(|i| fastest.get(&(kinds(i).slot, fresh_pair(i))).copied())
                    .collect();
                let misses_ms: Vec<f64> = fastest
                    .iter()
                    .filter(|((slot, _), _)| *slot == Slot::Miss)
                    .map(|(_, ms)| *ms)
                    .collect();
                o.metrics.set(
                    "work_per_s",
                    cycle.len() as f64 * 1e3 / cycle.iter().sum::<f64>(),
                );
                o.metrics.set(
                    "wait_ms",
                    misses_ms.iter().sum::<f64>() / misses_ms.len().max(1) as f64,
                );
                o.notes.push(format!(
                    "fresh stream: {} replies in {:.2} s ({:.1}/s), {} of them exact misses; wait_ms is the mean over the {} pairs of the pair's fastest miss, work_per_s the rate of one {FRESH_CYCLE}-request cycle with every kind of request at its fastest; the median of all misses is {:.3} ms and their p{miss_pct} {miss_hi:.3} ms (not gated); read stream beside it: {} replies, {:.0}/s",
                    fresh.samples.len(),
                    fresh.wall_s,
                    fresh.rps(),
                    misses.len(),
                    misses_ms.len(),
                    miss_p50,
                    read.samples.len(),
                    read.rps()
                ));
            } else {
                o.metrics.set("serve.service.miss_hi_ms", miss_hi);
                hits.sort_by(f64::total_cmp);
                o.metrics.set("serve.server.mixed_hit_rps", read.rps());
                o.metrics
                    .set("serve.server.mixed_hit_p50_us", percentile(&hits, 50) * 1e3);
                o.metrics
                    .set("serve.server.mixed_hit_p99_us", percentile(&hits, 99) * 1e3);
                o.metrics.set(
                    "core.tune.search_ms",
                    median(&fresh.ms_of(|s| s == Slot::Tune)),
                );
                o.metrics
                    .set("core.tune.cells_scored", fresh.tune_cells as f64);
                // The same kind of miss with no socket and no reactor.
                let lines = fresh_stream(ctx.seed + 500);
                let inproc: Vec<f64> = (0..if ctx.quick { 16 } else { 64 })
                    .map(lines)
                    .filter(|r| r.slot == Slot::Miss)
                    .map(|r| {
                        let (reply, secs) = tracer.call("serve.service.handle_line", 0, || {
                            daemon.service.handle_line(&r.line)
                        });
                        o.check(is_ok(&reply), || {
                            format!("in-process miss {}: {reply}", r.line)
                        });
                        secs * 1e3
                    })
                    .collect();
                o.metrics
                    .set("serve.service.miss_inproc_ms", median(&inproc));
                predictor_layers(&daemon, goldens, &mut o);
            }
        }
    }

    match Stats::scrape(&daemon.addr) {
        Some(stats) => {
            o.check(stats.conserved(), || {
                format!(
                    "cache conservation: {} hits + {} misses != {} requests + {} baselines",
                    stats.shard_hits,
                    stats.shard_misses,
                    stats.simulate_requests,
                    stats.baseline_fetches
                )
            });
            o.check(stats.rejected == 0, || {
                format!("{} requests rejected", stats.rejected)
            });
            if ctx.traced {
                stats.record(predicted_sent, &mut o);
                o.metrics
                    .set("serve.cache.journal_bytes", daemon.journal_bytes() as f64);
            }
        }
        None => o.check(false, || "stats scrape".into()),
    }
    let drained = daemon.stop();
    o.check(drained, || "daemon did not drain inside 30 s".into());

    if ctx.traced {
        o.metrics.set("bench.spans", tracer.spans().len() as f64);
        o.metrics.set("bench.trace_coverage", tracer.coverage());
        crate::write_spans(&tracer, name, &mut o);
    } else {
        // The fastest: set-ups are equal work, and the host only adds time.
        o.metrics.set(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        );
        o.notes.push(format!(
            "set-ups took {setups:.3?} s; setup_s is the fastest"
        ));
        o.metrics.set("peak_rss_mb", host::peak_rss_mb());
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use paxsim_core::hash::Fidelity;

    fn lines(next: impl FnMut(u64) -> Req, n: u64) -> Vec<(Slot, String)> {
        (0..n).map(next).map(|r| (r.slot, r.line)).collect()
    }

    #[test]
    fn same_seed_same_stream_and_another_seed_other_fresh_keys() {
        let a = lines(fresh_stream(7), 64);
        assert_eq!(a, lines(fresh_stream(7), 64), "same seed, same bytes");
        let b = lines(fresh_stream(8), 64);
        assert_ne!(a, b);
        let keys = |v: &[(Slot, String)]| {
            v.iter()
                .map(|(_, l)| l.clone())
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(keys(&a).len(), 64, "every fresh request is a new key");
        assert!(
            keys(&a).is_disjoint(&keys(&b)),
            "another seed asks for other keys"
        );
    }

    #[test]
    fn fresh_cycle_is_twelve_misses_three_predictions_one_tune() {
        let v = lines(fresh_stream(3), 16 * 4);
        let count = |s: Slot| v.iter().filter(|(slot, _)| *slot == s).count();
        assert_eq!(
            (
                count(Slot::Miss),
                count(Slot::FreshPredict),
                count(Slot::Tune)
            ),
            (48, 12, 4)
        );
        for (slot, line) in &v {
            let parsed = protocol::parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            match (slot, parsed) {
                (Slot::Miss, Request::Simulate { spec, fidelity, .. }) => {
                    assert_eq!((spec.trials, fidelity), (2, Fidelity::Exact));
                }
                (Slot::FreshPredict, Request::Simulate { fidelity, .. }) => {
                    assert_eq!(fidelity, Fidelity::Predicted)
                }
                (Slot::Tune, Request::Tune { req, .. }) => {
                    assert_eq!(req.configs.len() * req.schedules.len(), 4)
                }
                (slot, other) => panic!("{slot:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn every_seed_asks_every_pair_for_the_same_mix() {
        for seed in [1, 2, 77] {
            let mut per_pair = std::collections::BTreeMap::<String, [usize; 3]>::new();
            for (slot, line) in lines(fresh_stream(seed), 192) {
                let v = serde_json::parse(&line).unwrap();
                let pair = format!(
                    "{} {}",
                    v["kernel"].as_str().unwrap(),
                    v["config"].as_str().unwrap_or("-")
                );
                let kind = match slot {
                    Slot::Miss => 0,
                    Slot::FreshPredict => 1,
                    _ => 2,
                };
                per_pair.entry(pair).or_default()[kind] += 1;
            }
            // `op=tune` names a kernel and no configuration.
            let tunes: usize = per_pair
                .iter()
                .filter(|(p, _)| p.ends_with('-'))
                .map(|(_, c)| c[2])
                .sum();
            assert_eq!(tunes, 12, "seed {seed}");
            for (pair, counts) in per_pair.iter().filter(|(p, _)| !p.ends_with('-')) {
                assert_eq!(counts[..2], [12, 3], "seed {seed}, {pair}");
            }
            assert_eq!(per_pair.len(), 12 + KERNELS.len());
        }
    }

    #[test]
    fn read_cycle_is_forty_five_hits_four_predicted_one_admin() {
        let cached = |f: fn(&str, &str) -> String| -> Vec<Cached> {
            grid_pairs()
                .iter()
                .map(|(k, c)| Cached {
                    line: f(k, c),
                    reply: Arc::from("r"),
                })
                .collect()
        };
        let (exact, predicted) = (cached(exact_line), cached(predicted_line));
        // Fidelity is part of a request's identity; a predicted line that
        // parsed as exact would silently measure the wrong tier.
        assert!(matches!(
            protocol::parse_request(&predicted[0].line),
            Ok(Request::Simulate {
                fidelity: Fidelity::Predicted,
                ..
            })
        ));
        let v = lines(read_stream(&exact, &predicted, 5), 150);
        let count = |s: Slot| v.iter().filter(|(slot, _)| *slot == s).count();
        assert_eq!(
            (
                count(Slot::Hit),
                count(Slot::PredictedHit),
                count(Slot::Admin)
            ),
            (135, 12, 3)
        );
        let admin: std::collections::BTreeSet<_> = v
            .iter()
            .filter(|(s, _)| *s == Slot::Admin)
            .map(|(_, l)| l.as_str())
            .collect();
        assert_eq!(admin.len(), 3, "stats, health and metrics each get asked");
        assert_eq!(v, lines(read_stream(&exact, &predicted, 5), 150));
        assert_ne!(v, lines(read_stream(&exact, &predicted, 6), 150));
    }
}
