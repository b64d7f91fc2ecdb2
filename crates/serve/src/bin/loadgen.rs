//! `paxsim-loadgen` — self-asserting loopback load smoke for the
//! paxsim-serve daemon.
//!
//! ```text
//! paxsim-loadgen [--connections N] [--requests N] [--quick] [--chaos]
//! ```
//!
//! Stands a full in-process server up (reactor front end, worker pool,
//! batcher, sharded cache) on a loopback TCP port and drives it through
//! two phases:
//!
//! 1. **Cold / batching** — a grid of compatible simulate requests
//!    (kernels × configurations, identical study parameters) fired
//!    concurrently from one connection per spec, with a nonzero gather
//!    window. Compatible misses must merge into shared sweeps
//!    (`merged > 0`).
//! 2. **Hot** — the now-cached grid round-robined over `--connections`
//!    persistent pipelined connections for `--requests` total requests;
//!    every one must book exactly one memory-tier hit. Then the same grid
//!    over **one** closed-loop connection (`hot_1conn`): with a single
//!    request in flight nothing hides the time the reactor takes to notice
//!    a request, which sixteen connections keeping it busy do.
//!
//! Then a **predicted-tier** pass: the same grid at
//! `fidelity=predicted`, cold (every pair's first prediction is
//! sentinel-audited against the cached exact records) then hot. The
//! pass asserts the tier's contract — predictions never enter the
//! batcher, and model evaluation stays under 100 µs server-side.
//!
//! Then an **autotune** pass: one budgeted `op=tune` search over a small
//! config × schedule grid, then an identical repeat. The pass asserts
//! the endpoint's contract — a search never enters the batcher, books no
//! simulate traffic (the conservation envelope below stays exact), and a
//! finished search replays byte-identical from its own cache.
//!
//! With `--chaos` a third phase soaks a second daemon, opened on the warm
//! cache directory with a fault plan in its `ServeConfig` — connection
//! kills every ~97 dispatched frames plus worker panics on ~1% of jobs —
//! using a **self-healing client**: every
//! dropped connection is reopened and the request resent (safe: the
//! content hash is the idempotency key, so a resend dedupes against the
//! cache and single-flight table). The phase asserts zero hung requests
//! (every send gets an answer within a read timeout), every request
//! eventually answered `ok`, and the conservation law intact *by the
//! server's own count* (`Σ shard hits + Σ shard misses ==
//! simulate_requests + baseline_fetches` — resends are extra simulate
//! requests, and the law must absorb them exactly).
//!
//! Afterwards it scrapes `op=stats`, checks the cross-shard conservation
//! law (`Σ shard hits + Σ shard misses == simulate requests + baseline
//! fetches`) and drains the server gracefully. Any violated invariant
//! (reply not ok, zero merges, broken conservation, hung request, failed
//! drain) exits nonzero, which is what `ci.sh` runs it for. The rates it
//! prints on stderr are a log: it writes no file, and performance is read
//! from paxbench (`benchmark/`, workloads `serve_hot` and `serve_mixed`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paxsim_core::faultinject::{self, Faults};
use paxsim_serve::{ServeConfig, Server, Service};
use serde::Value;

/// The request grid: every pair is compatible with every other (same
/// class, trials, jitter, schedule, machine, no deadline), so the cold
/// phase can merge across the full grid.
const KERNELS: [&str; 4] = ["ep", "is", "cg", "bt"];
const CONFIGS: [&str; 3] = ["Serial", "CMP", "CMT"];

fn usage() -> ! {
    eprintln!("usage: paxsim-loadgen [--connections N] [--requests N] [--quick] [--chaos]");
    std::process::exit(2);
}

fn grid() -> Vec<String> {
    let mut lines = Vec::new();
    for k in KERNELS {
        for c in CONFIGS {
            lines.push(format!(
                r#"{{"op":"simulate","kernel":"{k}","config":"{c}"}}"#
            ));
        }
    }
    lines
}

/// One blocking round trip on a fresh connection.
fn roundtrip(addr: &str, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Cold phase: one connection per grid spec, all fired as close to
/// simultaneously as the OS allows. Returns wall ms.
fn cold_phase(addr: &str, lines: &[String]) -> f64 {
    let barrier = std::sync::Barrier::new(lines.len());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for line in lines {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let reply = roundtrip(addr, line).expect("cold request I/O");
                assert!(
                    reply.contains("\"ok\":true"),
                    "cold reply must be ok: {reply}"
                );
            });
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// Hot phase: `connections` persistent connections, each sending its
/// share of `total` requests round-robined over the (now cached) grid.
/// Returns (sorted latencies ms, wall seconds).
fn hot_phase(addr: &str, lines: &[String], connections: usize, total: usize) -> (Vec<f64>, f64) {
    let per = total / connections;
    let extra = total % connections;
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let count = per + usize::from(c < extra);
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("hot connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(stream);
                    let mut lat = Vec::with_capacity(count);
                    let mut reply = String::new();
                    for i in 0..count {
                        let line = &lines[(c + i) % lines.len()];
                        let t = Instant::now();
                        reader.get_mut().write_all(line.as_bytes()).expect("write");
                        reader.get_mut().write_all(b"\n").expect("write");
                        reply.clear();
                        reader.read_line(&mut reply).expect("read");
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        assert!(
                            reply.contains("\"ok\":true"),
                            "hot reply must be ok: {reply}"
                        );
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("hot client"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    // total_cmp, not partial_cmp().expect(): a NaN latency must not
    // panic the report after the run already succeeded.
    latencies.sort_by(f64::total_cmp);
    (latencies, wall)
}

/// Chaos soak: `total` requests over `connections` self-healing clients
/// while the daemon's fault plan kills connections and panics workers.
///
/// Client discipline per request: send, then read with a hard timeout.
/// * A reply that is `ok` finishes the request.
/// * EOF / reset / short line (connection killed before the reply made
///   it out) → reconnect and **resend the same line**; idempotent by
///   content hash, so the healed request serves from cache or joins the
///   in-flight computation.
/// * A typed `panic` / `overloaded` / `shed` rejection → retry on the
///   same connection (the daemon stayed up; the request was refused).
/// * A read timeout is a **hung request** — an instant failure; the
///   whole point of typed rejections and worker isolation is that the
///   daemon never swallows a request silently.
///
/// Returns total client resends (transport heals + rejection retries).
fn chaos_phase(addr: &str, lines: &[String], connections: usize, total: usize) -> usize {
    let per = total / connections;
    let extra = total % connections;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let count = per + usize::from(c < extra);
                scope.spawn(move || {
                    let connect = || -> BufReader<TcpStream> {
                        for attempt in 0..100 {
                            match TcpStream::connect(addr) {
                                Ok(s) => {
                                    s.set_nodelay(true).expect("nodelay");
                                    s.set_read_timeout(Some(Duration::from_secs(10)))
                                        .expect("read timeout");
                                    return BufReader::new(s);
                                }
                                Err(_) if attempt < 99 => {
                                    std::thread::sleep(Duration::from_millis(10));
                                }
                                Err(e) => panic!("chaos reconnect failed: {e}"),
                            }
                        }
                        unreachable!("loop returns or panics");
                    };
                    let mut reader = connect();
                    let mut reply = String::new();
                    let mut resends = 0usize;
                    for i in 0..count {
                        // Mostly cached grid traffic (answered inline by
                        // the reactor), with every 20th request a *fresh*
                        // spec — a never-seen jitter — so a steady ~5% of
                        // the soak reaches the compute workers and the
                        // worker-panic fault has jobs to land on.
                        let fresh;
                        let line: &str = if i % 20 == 0 {
                            fresh = format!(
                                r#"{{"op":"simulate","kernel":"{}","config":"{}","jitter":{}}}"#,
                                KERNELS[c % KERNELS.len()],
                                CONFIGS[c % CONFIGS.len()],
                                10_000 + i
                            );
                            &fresh
                        } else {
                            &lines[(c + i) % lines.len()]
                        };
                        let mut attempts = 0u32;
                        loop {
                            attempts += 1;
                            assert!(
                                attempts <= 12,
                                "request answered neither ok nor retryable after 12 attempts: {line}"
                            );
                            let sent = reader
                                .get_mut()
                                .write_all(line.as_bytes())
                                .and_then(|()| reader.get_mut().write_all(b"\n"));
                            if sent.is_err() {
                                resends += 1;
                                reader = connect();
                                continue;
                            }
                            reply.clear();
                            match reader.read_line(&mut reply) {
                                // Clean close or short line: the kill beat
                                // the reply out the door. Heal and resend.
                                Ok(0) => {
                                    resends += 1;
                                    reader = connect();
                                    continue;
                                }
                                Ok(_) if !reply.ends_with('\n') => {
                                    resends += 1;
                                    reader = connect();
                                    continue;
                                }
                                Ok(_) => {}
                                Err(e)
                                    if matches!(
                                        e.kind(),
                                        std::io::ErrorKind::WouldBlock
                                            | std::io::ErrorKind::TimedOut
                                    ) =>
                                {
                                    panic!("hung request: no reply within 10 s for {line}");
                                }
                                Err(_) => {
                                    resends += 1;
                                    reader = connect();
                                    continue;
                                }
                            }
                            if reply.contains("\"ok\":true") {
                                break;
                            }
                            let retryable = ["\"error\":\"panic\"", "\"error\":\"overloaded\"", "\"error\":\"shed\""]
                                .iter()
                                .any(|cat| reply.contains(cat));
                            assert!(retryable, "chaos reply must be ok or retryable: {reply}");
                            resends += 1;
                        }
                    }
                    resends
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chaos client"))
            .sum()
    })
}

fn main() {
    let mut connections: usize = 16;
    let mut requests: usize = 60_000;
    let mut quick = false;
    let mut chaos = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |flag: &str| -> usize {
            it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{flag} needs a number");
                usage()
            })
        };
        match arg.as_str() {
            "--connections" => connections = num("--connections").max(1),
            "--requests" => requests = num("--requests").max(1),
            "--quick" => quick = true,
            "--chaos" => chaos = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    if quick {
        connections = connections.min(8);
        requests = requests.min(6_000);
    }
    let cache_dir: PathBuf =
        std::env::temp_dir().join(format!("paxsim_loadgen_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let start = |faults: Faults| {
        let service = Arc::new(
            Service::open(ServeConfig {
                cache_dir: cache_dir.clone(),
                // Wide enough that the barrier-released cold grid lands in
                // one gather window even on a loaded CI host.
                batch_window_ms: 50,
                faults,
                ..ServeConfig::default()
            })
            .expect("open service"),
        );
        let server =
            Server::start(service.clone(), Some("127.0.0.1:0"), None).expect("start server");
        let addr = server.tcp_addr().expect("tcp bound").to_string();
        (service, server, addr)
    };
    let (service, server, addr) = start(Faults::default());

    let lines = grid();
    eprintln!(
        "loadgen: {} specs cold (window 50 ms), then {requests} requests over {connections} connections",
        lines.len()
    );

    // Phase 1: cold grid, concurrent, must merge.
    let cold_ms = cold_phase(&addr, &lines);
    let batches = service.batches();
    let merged = service.batch_merged();
    let merge_rate = merged as f64 / lines.len() as f64;
    eprintln!(
        "loadgen: cold grid in {cold_ms:.1} ms — {batches} batches, {merged} merged ({:.0}% of requests rode a shared sweep)",
        merge_rate * 100.0
    );
    assert!(
        merged > 0,
        "compatible concurrent cold misses must merge (batches = {batches})"
    );

    // Phase 2: hot. Every request of it is a hit on a resident entry, so
    // each must be answered inline and book one memory-tier hit — in the
    // shard's own counter and, with obs on, in the two `op=metrics`
    // counters. A hit served from a stored reply line that forgot to book
    // would pass every byte comparison and only drift the stats; here it
    // fails the run.
    let booked = || {
        (
            service.cache().mem_hits(),
            paxsim_obs::counter("serve.cache.mem_hits").get(),
            paxsim_obs::counter("serve.inline_hits").get(),
        )
    };
    let before = booked();
    let (latencies, wall) = hot_phase(&addr, &lines, connections, requests);
    let after = booked();
    let sent = requests as u64;
    assert_eq!(
        after.0 - before.0,
        sent,
        "hot phase: shard mem_hits must move once per request"
    );
    if paxsim_obs::enabled() {
        assert_eq!(
            (after.1 - before.1, after.2 - before.2),
            (sent, sent),
            "hot phase: serve.cache.mem_hits and serve.inline_hits must each move once per request"
        );
    }
    let rps = latencies.len() as f64 / wall;
    let p50 = percentile(&latencies, 0.5);
    let p99 = percentile(&latencies, 0.99);
    eprintln!(
        "loadgen: hot {} requests in {wall:.2} s — {rps:.0} req/s, p50 {p50:.3} ms, p99 {p99:.3} ms",
        latencies.len()
    );

    // Phase 2.2: one closed-loop connection. Every request finds the
    // reactor asleep, so its wake latency is in every sample. The rate is
    // logged, not held to a line: it is two thread wakes per request, and
    // a shared host wakes threads late for a while after it has been
    // busy. What is asserted holds on any host: every request answered
    // (`hot_phase` panics on a reply that is not ok), and a median under
    // 500 µs. That catches a reactor waiting out a millisecond timer with
    // a request on its socket (the 10 ms accept back-off left on, a lost
    // wake papered over by a timeout); a park of tens of µs shows only in
    // the rate, which paxbench measures as `serve.server.hit_rps_1conn`.
    let one_requests = if quick { 4_000 } else { 20_000 };
    let (one_lat, one_wall) = hot_phase(&addr, &lines, 1, one_requests);
    let one_rps = one_lat.len() as f64 / one_wall;
    let one_p50_us = percentile(&one_lat, 0.5) * 1e3;
    let one_p99_us = percentile(&one_lat, 0.99) * 1e3;
    eprintln!(
        "loadgen: hot_1conn {} requests in {one_wall:.2} s — {one_rps:.0} req/s, p50 {one_p50_us:.0} µs, p99 {one_p99_us:.0} µs",
        one_lat.len()
    );
    assert_eq!(one_lat.len(), one_requests, "hot_1conn lost a request");
    assert!(
        one_p50_us < 500.0,
        "hot_1conn p50 {one_p50_us:.0} µs: the reactor is waiting for a timer, not for the socket"
    );

    // Phase 2.5: predicted tier. The same grid at fidelity=predicted:
    // cold predictions (each pair's first is sentinel-audited against
    // the already-cached exact records), then a sustained hot run. The
    // tier's contract is asserted here: it never batches, and model
    // evaluation stays under 100 µs server-side.
    let pred_lines: Vec<String> = lines
        .iter()
        .map(|l| l.replacen('}', r#","fidelity":"predicted"}"#, 1))
        .collect();
    let batches_before = service.batches();
    let pred_cold_ms = cold_phase(&addr, &pred_lines);
    assert_eq!(
        service.batches(),
        batches_before,
        "the predicted tier must never enter the batcher"
    );
    let pred_requests = if quick { 2_000 } else { 20_000 };
    let (pred_lat, pred_wall) = hot_phase(&addr, &pred_lines, connections, pred_requests);
    let pred_rps = pred_lat.len() as f64 / pred_wall;
    let pred_p50 = percentile(&pred_lat, 0.5);
    let eval = service
        .predict_latencies_ms()
        .expect("cold predictions must have evaluated the model");
    let (eval_mean, eval_max) = (eval.mean, eval.max);
    assert!(
        eval_mean < 0.1,
        "predicted answers must cost < 100 µs server-side (mean {:.1} µs over {} evals)",
        eval_mean * 1e3,
        eval.n
    );
    let audits = service.predict_auditor().audits();
    let quarantined = service.predict_auditor().quarantined_pairs();
    let predict_error_p95 = service.predict_auditor().error_p95();
    eprintln!(
        "loadgen: predicted cold grid in {pred_cold_ms:.1} ms, hot {} requests in {pred_wall:.2} s \
         — {pred_rps:.0} req/s, p50 {pred_p50:.3} ms wire, model eval mean {:.1} µs / max {:.1} µs, \
         {audits} audits, {quarantined} pairs quarantined, error p95 {}",
        pred_lat.len(),
        eval_mean * 1e3,
        eval_max * 1e3,
        predict_error_p95.map_or("n/a".to_string(), |e| format!("{e:.3}")),
    );
    assert!(audits > 0, "every pair's first prediction must be audited");

    // Phase 2.7: autotune. One budgeted search over a 2x2 grid — the
    // static cells are warm from phase 1, the dynamic cells compute
    // fresh — then an identical repeat that must replay byte-identical
    // from the result cache.
    const TUNE: &str = r#"{"op":"tune","kernel":"ep","configs":["CMP","CMT"],"schedules":["static","dynamic,2"],"budget":16}"#;
    let batches_before_tune = service.batches();
    let t_tune = Instant::now();
    let tune_cold = roundtrip(&addr, TUNE).expect("tune I/O");
    let tune_search_ms = t_tune.elapsed().as_secs_f64() * 1e3;
    assert!(
        tune_cold.contains("\"ok\":true"),
        "tune reply must be ok: {tune_cold}"
    );
    let t_tune = Instant::now();
    let tune_repeat = roundtrip(&addr, TUNE).expect("tune I/O");
    let tune_replay_ms = t_tune.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        tune_cold, tune_repeat,
        "a finished search must replay byte-identical from cache"
    );
    assert_eq!(
        service.batches(),
        batches_before_tune,
        "a tune search must never enter the batcher"
    );
    assert_eq!(
        (service.tunes(), service.tune_hits()),
        (2, 1),
        "the repeat must be a result-cache hit"
    );
    eprintln!(
        "loadgen: tune search in {tune_search_ms:.1} ms, cached replay {tune_replay_ms:.3} ms"
    );

    let floor = (lines.len() + requests + one_requests + pred_lines.len() + pred_requests) as u64;
    let shards = conservation(&addr, floor, floor);
    let field = |v: &Value, k: &str| v[k].as_u64().unwrap_or(0);
    let populated = shards
        .iter()
        .filter(|s| field(s, "mem_hits") + field(s, "disk_hits") + field(s, "misses") > 0)
        .count();
    assert!(
        populated > 1,
        "the grid must spread over more than one shard (got {populated})"
    );

    // Graceful drain: every reply flushed, every thread joined.
    let drained = server.shutdown(Duration::from_secs(30));
    assert!(drained, "server must drain cleanly inside the grace period");
    eprintln!("loadgen: drained cleanly");

    // Phase 3 (optional): chaos soak on a second daemon over the warm
    // cache, its fault plan in its config. Budgets are effectively
    // unlimited; the periods set the rates: one connection kill per ~97
    // dispatched frames, one worker panic per 7 jobs. Only cache-miss
    // requests become worker jobs (~5% of the soak), so the panic rate
    // lands near 1% of requests overall.
    if chaos {
        let chaos_requests = if quick { 1_500 } else { 12_000 };
        let faults = Faults::parse("serve-conn-kill:97:1000000, serve-worker-panic:7:1000000")
            .expect("the chaos plan parses");
        let (_service, server, addr) = start(faults.clone());
        // Injected worker panics are caught and healed by design.
        faultinject::hide_injected_panics();
        let t0 = Instant::now();
        let resends = chaos_phase(&addr, &lines, connections.min(8), chaos_requests);
        let wall = t0.elapsed().as_secs_f64();
        let (worker_panics, conn_kills, _partial) = faults.fired();
        eprintln!(
            "loadgen: chaos {chaos_requests} requests in {wall:.2} s — {conn_kills} connections \
             killed, {worker_panics} worker panics injected, {resends} client heals/resends, \
             0 hung requests",
        );
        assert!(
            conn_kills > 0 && worker_panics > 0,
            "the chaos soak must actually fire faults (kills {conn_kills}, panics {worker_panics})"
        );
        conservation(
            &addr,
            chaos_requests as u64,
            (chaos_requests + resends) as u64,
        );
        let drained = server.shutdown(Duration::from_secs(30));
        assert!(drained, "the chaos daemon must drain cleanly");
        eprintln!("loadgen: chaos daemon drained cleanly");
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Scrape `op=stats` over the wire like any client and check the
/// cross-shard conservation law (`Σ shard hits + Σ shard misses ==
/// simulate requests + baseline fetches`) against the *server's* own
/// simulate count, which must lie in `[floor, ceiling]`: client resends
/// are extra simulate requests the law must absorb exactly, and a killed
/// connection's request may or may not have been dispatched before the
/// kill. Returns the per-shard rows.
fn conservation(addr: &str, floor: u64, ceiling: u64) -> Vec<Value> {
    let stats_line = roundtrip(addr, r#"{"op":"stats"}"#).expect("stats I/O");
    let stats = serde_json::parse(&stats_line).expect("stats parses");
    let shards = match &stats["cache"]["shards"] {
        Value::Array(a) => a.clone(),
        other => panic!("stats.cache.shards must be an array, got {other:?}"),
    };
    let field = |v: &Value, k: &str| v[k].as_u64().unwrap_or(0);
    let shard_hits: u64 = shards
        .iter()
        .map(|s| field(s, "mem_hits") + field(s, "disk_hits"))
        .sum();
    let shard_misses: u64 = shards.iter().map(|s| field(s, "misses")).sum();
    let baseline_fetches = field(&stats, "baseline_fetches");
    let simulate_requests = field(&stats, "simulate_requests");
    assert!(
        simulate_requests >= floor && simulate_requests <= ceiling,
        "server simulate count {simulate_requests} outside client envelope [{floor}, {ceiling}]"
    );
    let conserved = shard_hits + shard_misses == simulate_requests + baseline_fetches;
    eprintln!(
        "loadgen: conservation {} — Σ shard hits {shard_hits} + misses {shard_misses} \
         vs requests {simulate_requests} + baselines {baseline_fetches}",
        if conserved { "holds" } else { "VIOLATED" }
    );
    assert!(
        conserved,
        "cross-shard conservation: {shard_hits} + {shard_misses} != {simulate_requests} + {baseline_fetches}"
    );
    shards
}
