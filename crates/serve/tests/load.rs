//! The daemon under load, in process: a full server (reactor, worker
//! pool, batcher, sharded cache) on a loopback TCP port, driven through
//! its phases in order, then a chaos soak over the warm cache. The phases
//! are one test: the obs counters the hot phase checks are process-global,
//! so nothing else in this binary may serve requests beside it.
//!
//! 1. **Cold**: a grid of compatible simulate requests fired at once, one
//!    connection each, inside a 50 ms gather window, must merge.
//! 2. **Hot**: the cached grid over eight pipelined connections; every
//!    request books exactly one memory-tier hit. Then one closed-loop
//!    connection, where the time the reactor takes to notice a request is
//!    in every sample: nothing lost, median under 500 µs.
//! 3. **Predicted**: the grid at `fidelity=predicted`, cold (each pair's
//!    first prediction audited) then hot: never batched, model evaluation
//!    under 100 µs server-side.
//! 4. **Tune**: a budgeted search and its repeat: never batched, replayed
//!    byte-identical from the result cache.
//!
//! Then the conservation law (`Σ shard hits + Σ shard misses ==
//! simulate requests + baseline fetches`) by the server's own count, more
//! than one shard populated, and a clean drain. The soak reopens the warm
//! cache under a plan that kills connections and panics workers, with
//! self-healing clients that resend; every request ends ok, none hangs,
//! and the law absorbs the resends exactly. Rates are paxbench's to
//! measure (`serve_hot`, `serve_mixed`); this test logs none.

use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use paxsim_core::faultinject::{self, Faults};
use paxsim_serve::{ServeConfig, Server, Service};
use serde::Value;

/// Every pair is compatible with every other (same class, trials, jitter,
/// schedule, machine, no deadline), so the cold phase can merge them all.
const KERNELS: [&str; 4] = ["ep", "is", "cg", "bt"];
const CONFIGS: [&str; 3] = ["Serial", "CMP", "CMT"];

const CONNECTIONS: usize = 8;
const HOT: usize = 6_000;
const HOT_1CONN: usize = 4_000;
const PREDICTED: usize = 2_000;
const CHAOS: usize = 1_500;

fn grid() -> Vec<String> {
    KERNELS
        .iter()
        .flat_map(|k| {
            CONFIGS.map(|c| format!(r#"{{"op":"simulate","kernel":"{k}","config":"{c}"}}"#))
        })
        .collect()
}

/// One blocking round trip on a fresh connection.
fn roundtrip(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{line}").expect("write");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    reply.trim_end().to_string()
}

fn assert_ok(reply: &str) {
    assert!(reply.contains("\"ok\":true"), "reply must be ok: {reply}");
}

/// Every line of `lines` at once, one connection each.
fn cold(addr: &str, lines: &[String]) {
    let barrier = Barrier::new(lines.len());
    std::thread::scope(|scope| {
        for line in lines {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                assert_ok(&roundtrip(addr, line));
            });
        }
    });
}

/// `total` requests round-robined over the grid on `connections`
/// persistent connections; returns the latencies in µs, sorted.
fn hot(addr: &str, lines: &[String], connections: usize, total: usize) -> Vec<f64> {
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|c| {
                let count = total / connections + usize::from(c < total % connections);
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(stream);
                    let mut reply = String::new();
                    (0..count)
                        .map(|i| {
                            let t = Instant::now();
                            writeln!(reader.get_mut(), "{}", lines[(c + i) % lines.len()])
                                .expect("write");
                            reply.clear();
                            reader.read_line(&mut reply).expect("read");
                            assert_ok(&reply);
                            t.elapsed().as_secs_f64() * 1e6
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("hot client"))
            .collect()
    });
    latencies.sort_by(f64::total_cmp);
    latencies
}

/// `total` requests over `connections` self-healing clients; returns the
/// resends. A client reconnects and resends on a dropped connection or a
/// short line (idempotent: the content hash is the key), retries a typed
/// `panic` / `overloaded` / `shed` refusal, and fails on a reply that
/// does not come within 10 s: a hung request.
fn chaos(addr: &str, lines: &[String], connections: usize, total: usize) -> usize {
    let connect = || {
        let stream = (0..100)
            .find_map(|_| {
                TcpStream::connect(addr)
                    .inspect_err(|_| std::thread::sleep(Duration::from_millis(10)))
                    .ok()
            })
            .expect("chaos reconnect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        BufReader::new(stream)
    };
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..connections)
            .map(|c| {
                let count = total / connections + usize::from(c < total % connections);
                scope.spawn(move || {
                    let mut reader = connect();
                    let mut reply = String::new();
                    let mut resends = 0;
                    for i in 0..count {
                        // Every 20th request is never seen (a fresh jitter),
                        // so the worker-panic fault has jobs to land on.
                        let line = if i % 20 == 0 {
                            format!(
                                r#"{{"op":"simulate","kernel":"{}","config":"{}","jitter":{}}}"#,
                                KERNELS[c % KERNELS.len()],
                                CONFIGS[c % CONFIGS.len()],
                                10_000 + i
                            )
                        } else {
                            lines[(c + i) % lines.len()].clone()
                        };
                        for attempt in 1.. {
                            assert!(attempt <= 12, "neither ok nor retryable: {line}");
                            reply.clear();
                            let read = writeln!(reader.get_mut(), "{line}")
                                .and_then(|()| reader.read_line(&mut reply));
                            match read {
                                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                                    panic!("hung request: no reply within 10 s for {line}")
                                }
                                Ok(n) if n > 0 && reply.ends_with('\n') => {}
                                _ => {
                                    resends += 1;
                                    reader = connect();
                                    continue;
                                }
                            }
                            if reply.contains("\"ok\":true") {
                                break;
                            }
                            let retryable = ["panic", "overloaded", "shed"]
                                .iter()
                                .any(|e| reply.contains(&format!("\"error\":\"{e}\"")));
                            assert!(retryable, "chaos reply must be ok or retryable: {reply}");
                            resends += 1;
                        }
                    }
                    resends
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("chaos client"))
            .sum()
    })
}

/// The conservation law over `op=stats`, with the server's simulate count
/// in `[floor, ceiling]`: a resend is an extra request the law must
/// absorb, and a killed connection's request may or may not have been
/// dispatched. Returns the per-shard rows.
fn conservation(addr: &str, floor: u64, ceiling: u64) -> Vec<Value> {
    let stats = serde_json::parse(&roundtrip(addr, r#"{"op":"stats"}"#)).expect("stats parses");
    let Value::Array(shards) = &stats["cache"]["shards"] else {
        panic!("stats.cache.shards must be an array: {stats:?}")
    };
    let sum = |keys: &[&str]| -> u64 {
        let field = |s: &Value, k: &str| s[k].as_u64().unwrap_or(0);
        shards
            .iter()
            .flat_map(|s| keys.iter().map(|&k| field(s, k)))
            .sum()
    };
    let hits = sum(&["mem_hits", "disk_hits"]);
    let misses = sum(&["misses"]);
    let requests = stats["simulate_requests"].as_u64().unwrap_or(0);
    let baselines = stats["baseline_fetches"].as_u64().unwrap_or(0);
    assert!(
        (floor..=ceiling).contains(&requests),
        "server simulate count {requests} outside [{floor}, {ceiling}]"
    );
    assert_eq!(
        hits + misses,
        requests + baselines,
        "cross-shard conservation: {hits} + {misses} != {requests} + {baselines}"
    );
    shards.clone()
}

#[test]
fn load_phases_then_a_chaos_soak_keep_every_invariant() {
    paxsim_obs::set_enabled(true);
    let cache_dir = std::env::temp_dir().join(format!("paxsim_serve_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let start = |faults: Faults| {
        let service = Arc::new(
            Service::open(ServeConfig {
                cache_dir: cache_dir.clone(),
                // Wide enough that the barrier-released cold grid lands in
                // one gather window on a loaded host.
                batch_window_ms: 50,
                faults,
                ..ServeConfig::default()
            })
            .expect("open service"),
        );
        let server = Server::start(service.clone(), Some("127.0.0.1:0"), None).expect("start");
        let addr = server.tcp_addr().expect("tcp bound").to_string();
        (service, server, addr)
    };
    let (service, server, addr) = start(Faults::default());
    let lines = grid();

    cold(&addr, &lines);
    let merged = service.batch_merged();
    assert!(merged > 0, "compatible concurrent cold misses must merge");

    // A hit served from a stored reply line that forgot to book would
    // pass every byte comparison and only drift the stats.
    let booked = || {
        (
            service.cache().mem_hits(),
            paxsim_obs::counter("serve.cache.mem_hits").get(),
            paxsim_obs::counter("serve.inline_hits").get(),
        )
    };
    let before = booked();
    hot(&addr, &lines, CONNECTIONS, HOT);
    let after = booked();
    let sent = HOT as u64;
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (sent, sent, sent),
        "shard mem_hits, serve.cache.mem_hits and serve.inline_hits must each move once per request"
    );

    // A median over 500 µs is a reactor waiting out a timer with a
    // request on its socket; the rate is paxbench's
    // `serve.server.hit_rps_1conn`.
    let one = hot(&addr, &lines, 1, HOT_1CONN);
    assert_eq!(one.len(), HOT_1CONN, "hot_1conn lost a request");
    let p50 = one[((one.len() - 1) as f64 * 0.5).round() as usize];
    assert!(
        p50 < 500.0,
        "hot_1conn p50 {p50:.0} µs: the reactor waits for a timer"
    );

    let predicted: Vec<String> = lines
        .iter()
        .map(|l| l.replacen('}', r#","fidelity":"predicted"}"#, 1))
        .collect();
    let batches = service.batches();
    cold(&addr, &predicted);
    assert_eq!(
        service.batches(),
        batches,
        "the predicted tier must never batch"
    );
    hot(&addr, &predicted, CONNECTIONS, PREDICTED);
    let eval = service
        .predict_latencies_ms()
        .expect("the model was evaluated");
    assert!(
        eval.mean < 0.1,
        "predicted answers must cost < 100 µs server-side (mean {:.1} µs over {})",
        eval.mean * 1e3,
        eval.n
    );
    assert!(
        service.predict_auditor().audits() > 0,
        "first predictions are audited"
    );

    // The static cells are warm from the cold phase, the dynamic ones
    // compute fresh.
    const TUNE: &str = r#"{"op":"tune","kernel":"ep","configs":["CMP","CMT"],"schedules":["static","dynamic,2"],"budget":16}"#;
    let batches = service.batches();
    let tune = roundtrip(&addr, TUNE);
    assert_ok(&tune);
    assert_eq!(
        roundtrip(&addr, TUNE),
        tune,
        "a finished search must replay"
    );
    assert_eq!(service.batches(), batches, "a tune search must never batch");
    assert_eq!((service.tunes(), service.tune_hits()), (2, 1));

    let floor = (lines.len() + HOT + HOT_1CONN + predicted.len() + PREDICTED) as u64;
    let shards = conservation(&addr, floor, floor);
    let populated = shards
        .iter()
        .filter(|s| {
            ["mem_hits", "disk_hits", "misses"]
                .iter()
                .any(|&k| s[k].as_u64() > Some(0))
        })
        .count();
    assert!(
        populated > 1,
        "the grid must spread over shards ({populated})"
    );
    assert!(
        server.shutdown(Duration::from_secs(30)),
        "the server must drain"
    );

    // One connection kill per 97 dispatched frames and one worker panic
    // per 7 jobs, budgets unlimited.
    let faults = Faults::parse("serve-conn-kill:97:1000000, serve-worker-panic:7:1000000")
        .expect("the chaos plan parses");
    let (_service, server, addr) = start(faults.clone());
    faultinject::hide_injected_panics();
    let resends = chaos(&addr, &lines, CONNECTIONS, CHAOS);
    let (panics, kills, _) = faults.fired();
    assert!(
        kills > 0 && panics > 0,
        "faults must fire: {kills} kills, {panics} panics"
    );
    conservation(&addr, CHAOS as u64, (CHAOS + resends) as u64);
    assert!(
        server.shutdown(Duration::from_secs(30)),
        "the chaos daemon must drain"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}
