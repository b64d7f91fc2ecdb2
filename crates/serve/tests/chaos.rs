//! Wire-level fault-recovery tests: every fault the chaos layer can
//! inject gets a *named* test over a real [`Server`] on a real loopback
//! socket, proving the recovery contract — the reply a client ultimately
//! receives is byte-identical to what a fault-free run produces, and the
//! failure surface is typed, never a hang.
//!
//! The byte-identity discipline: run the faulted exchange on a daemon
//! whose `ServeConfig` carries the plan, then compute the same request on
//! a *fresh*, plan-free service in a *fresh* cache directory and require
//! the two reply lines to be equal. Simulation is deterministic and the
//! wire rendering canonical, so any divergence — a half-applied put, a
//! retry that drifted, a corrupted record — shows up as a byte diff.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use paxsim_core::faultinject::Faults;
use paxsim_serve::{ServeConfig, Server, Service};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("paxsim_serve_chaos").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str, cfg_mod: impl FnOnce(&mut ServeConfig)) -> (Arc<Service>, Server) {
    let mut cfg = ServeConfig {
        cache_dir: tmp(name),
        ..ServeConfig::default()
    };
    cfg_mod(&mut cfg);
    let service = Arc::new(Service::open(cfg).unwrap());
    let server = Server::start(service.clone(), Some("127.0.0.1:0"), None).unwrap();
    (service, server)
}

fn plan(spec: &str) -> Faults {
    Faults::parse(spec).unwrap()
}

/// One round trip on a fresh connection; panics on any transport error.
fn roundtrip(server: &Server, line: &str) -> String {
    let stream = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.ends_with('\n'), "reply not terminated: {reply:?}");
    reply.trim_end().to_string()
}

/// A self-healing round trip: on EOF/reset before a full reply line,
/// reconnect and resend the same request (idempotent by content hash),
/// up to `retries` times. Returns (reply, heals).
fn healing_roundtrip(server: &Server, line: &str, retries: u32) -> (String, u32) {
    let mut heals = 0;
    loop {
        let attempt = || -> std::io::Result<Option<String>> {
            let stream = TcpStream::connect(server.tcp_addr().unwrap())?;
            stream.set_read_timeout(Some(Duration::from_secs(20)))?;
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            writer.write_all(line.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            let mut reply = String::new();
            let n = reader.read_line(&mut reply)?;
            if n == 0 || !reply.ends_with('\n') {
                return Ok(None); // killed mid-reply
            }
            Ok(Some(reply.trim_end().to_string()))
        };
        match attempt() {
            Ok(Some(reply)) => return (reply, heals),
            Ok(None) | Err(_) if heals < retries => heals += 1,
            Ok(None) => panic!("connection kept dying after {retries} heals"),
            Err(e) => panic!("transport error after {retries} heals: {e}"),
        }
    }
}

/// Fault-free reference reply for `line`: a fresh service over a fresh
/// cache directory.
fn reference_reply(name: &str, line: &str) -> String {
    let (_service, server) = start(name, |_| {});
    let reply = roundtrip(&server, line);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(server.shutdown(Duration::from_secs(10)));
    reply
}

const EP_CMP: &str = r#"{"op":"simulate","kernel":"ep","config":"CMP"}"#;

/// Connection reset: the reactor kills the connection carrying the
/// request's frame before the reply goes out. A self-healing client
/// reconnects, resends, and ends up with the byte-identical result.
#[test]
fn killed_connection_heals_by_reconnect_and_resend() {
    let (reply, heals) = {
        let (_service, server) = start("conn_kill", |cfg| cfg.faults = plan("serve-conn-kill:1:1"));
        let out = healing_roundtrip(&server, EP_CMP, 5);
        assert!(server.shutdown(Duration::from_secs(10)));
        out
    };
    assert!(heals >= 1, "the kill must actually sever a connection");
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(
        reply,
        reference_reply("conn_kill_ref", EP_CMP),
        "healed reply must be byte-identical to a fault-free run"
    );
}

/// Outbound slow-loris: every reactor write pass is capped at one byte,
/// so the reply trickles out over thousands of passes — but arrives
/// intact and byte-identical.
#[test]
fn partial_write_trickle_delivers_the_intact_reply() {
    let hot = {
        let (_service, server) = start("partial_write", |cfg| {
            cfg.faults = plan("serve-partial-write:100000")
        });
        // Cold compute first (under the same plan: the trickle applies to
        // its reply too), then a cache hit; both must survive 1-byte
        // write passes.
        let cold = roundtrip(&server, EP_CMP);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        let hot = roundtrip(&server, EP_CMP);
        assert_eq!(cold, hot, "hit must match the miss byte for byte");
        assert!(server.shutdown(Duration::from_secs(10)));
        hot
    };
    assert_eq!(
        hot,
        reference_reply("partial_write_ref", EP_CMP),
        "trickled reply must be byte-identical to a fault-free run"
    );
}

/// Inbound slow-loris: a client that trickles its request one byte at a
/// time (with real delays) must still get a full reply — frame
/// reassembly buffers partial lines without stalling the reactor.
#[test]
fn slow_loris_client_request_is_reassembled() {
    let reference = reference_reply("slow_loris_ref", EP_CMP);
    let (_service, server) = start("slow_loris", |_| {});
    // A fast client on a second connection must not be held hostage by
    // the trickler (reactor threads never block on one peer).
    let fast = roundtrip(&server, r#"{"op":"stats"}"#);
    assert!(fast.contains("\"ok\":true"), "{fast}");
    let stream = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let payload = format!("{EP_CMP}\n");
    let t0 = Instant::now();
    for chunk in payload.as_bytes().chunks(7) {
        writer.write_all(chunk).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        t0.elapsed() >= Duration::from_millis(10),
        "the trickle must take real time to exercise reassembly"
    );
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(
        reply.trim_end(),
        reference,
        "trickled-in request must produce the byte-identical reply"
    );
    assert!(server.shutdown(Duration::from_secs(10)));
}

/// Compute-worker panic: the job panics before touching the request; the
/// worker catches it, retries once, and the client sees a normal ok
/// reply — byte-identical to a run where no worker ever panicked.
#[test]
fn worker_panic_is_retried_to_a_byte_identical_reply() {
    let reply = {
        let (_service, server) = start("worker_panic", |cfg| {
            cfg.faults = plan("serve-worker-panic:1:1")
        });
        // A fresh miss is dispatched to the worker pool (hits answer
        // inline from the reactor), so the panic lands on this job.
        let reply = roundtrip(&server, EP_CMP);
        assert!(server.shutdown(Duration::from_secs(10)));
        reply
    };
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(
        reply,
        reference_reply("worker_panic_ref", EP_CMP),
        "retried reply must be byte-identical to a fault-free run"
    );
}

/// Batch-leader panic over the wire: compatible concurrent requests ride
/// one gather window; the leader's sweep panics; every rider re-runs
/// solo and replies ok — byte-identical to fault-free runs.
#[test]
fn batch_leader_panic_reruns_riders_byte_identical() {
    let kernels = ["ep", "cg", "is"];
    let replies = {
        let (service, server) = start("batch_panic", |cfg| {
            cfg.faults = plan("serve-batch-panic:1");
            cfg.batch_window_ms = 100;
        });
        let replies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = kernels
                .iter()
                .map(|k| {
                    let server = &server;
                    let line = format!(r#"{{"op":"simulate","kernel":"{k}","config":"CMP"}}"#);
                    scope.spawn(move || roundtrip(server, &line))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            service.batch_poisoned() >= 1,
            "the leader fault must actually poison a batch"
        );
        assert!(server.shutdown(Duration::from_secs(10)));
        replies
    };
    for (k, r) in kernels.iter().zip(&replies) {
        assert!(r.contains("\"ok\":true"), "{k} rider must recover: {r}");
        let reference = reference_reply(
            &format!("batch_panic_ref_{k}"),
            &format!(r#"{{"op":"simulate","kernel":"{k}","config":"CMP"}}"#),
        );
        assert_eq!(r, &reference, "{k} recovered reply must be byte-identical");
    }
}

/// Journal write failure: the put degrades to the memory tier (counted,
/// never silent) and the reply is still byte-identical — less durable,
/// never wrong.
#[test]
fn journal_write_failure_serves_byte_identical_degraded() {
    let reply = {
        let (service, server) = start("journal_fail", |cfg| cfg.faults = plan("journal-fail:2"));
        let reply = roundtrip(&server, EP_CMP);
        assert!(
            service.cache().put_failures() >= 1,
            "the degraded put must be counted"
        );
        assert!(server.shutdown(Duration::from_secs(10)));
        reply
    };
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(
        reply,
        reference_reply("journal_fail_ref", EP_CMP),
        "degraded reply must be byte-identical to a fault-free run"
    );
}

/// Artificial shard latency: lookups stall but nothing breaks — the
/// reply is late, typed-nothing, and byte-identical.
#[test]
fn shard_latency_delays_but_serves_byte_identical() {
    let (elapsed, reply) = {
        let (_service, server) = start("shard_slow", |cfg| {
            cfg.faults = plan("serve-shard-slow:40:2")
        });
        let t0 = Instant::now();
        let reply = roundtrip(&server, EP_CMP);
        let elapsed = t0.elapsed();
        assert!(server.shutdown(Duration::from_secs(10)));
        (elapsed, reply)
    };
    assert!(
        elapsed >= Duration::from_millis(40),
        "the latency fault must actually stall the lookup ({elapsed:?})"
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert_eq!(
        reply,
        reference_reply("shard_slow_ref", EP_CMP),
        "delayed reply must be byte-identical to a fault-free run"
    );
}

/// Circuit breaker over the wire: a config that panics deterministically
/// trips the breaker after `threshold` failures; further requests get
/// the typed `quarantined` rejection (with a retry hint); after the
/// cooldown a probe request goes through and closes the breaker.
#[test]
fn breaker_quarantines_then_probe_recovers_over_the_wire() {
    // Budget 6 = exactly two failing requests (each burns the cell's
    // 1 + 2 retries); the post-cooldown probe then runs clean.
    let (service, server) = start("breaker", |cfg| {
        cfg.faults = plan("cell-panic:0:6");
        cfg.breaker_threshold = 2;
        cfg.breaker_cooldown_ms = 200;
    });
    let line = r#"{"op":"simulate","kernel":"cg","config":"CMT"}"#;
    for i in 0..2 {
        let r = roundtrip(&server, line);
        assert!(r.contains("\"error\":\"panic\""), "failure {i}: {r}");
    }
    let quarantined = roundtrip(&server, line);
    assert!(
        quarantined.contains("\"error\":\"quarantined\""),
        "tripped breaker must reject typed: {quarantined}"
    );
    assert!(
        quarantined.contains("retry in"),
        "rejection must carry the retry hint: {quarantined}"
    );
    let health = roundtrip(&server, r#"{"op":"health"}"#);
    assert!(
        health.contains("\"state\":\"open\""),
        "health must show the open breaker: {health}"
    );
    std::thread::sleep(Duration::from_millis(250));
    let probed = roundtrip(&server, line);
    assert!(
        probed.contains("\"ok\":true"),
        "post-cooldown probe must recover: {probed}"
    );
    assert_eq!(
        service.breaker().snapshot().len(),
        0,
        "a successful probe must close the breaker"
    );
    assert!(server.shutdown(Duration::from_secs(10)));
}

/// Load shedding over the wire: with one running slot held by a stalled
/// computation, a queued request whose deadline expires is shed with the
/// typed `shed` rejection instead of waiting forever.
#[test]
fn queued_request_past_deadline_is_shed_typed() {
    let (service, server) = start("shed", |cfg| {
        cfg.faults = plan("cell-slow:0:400:1");
        cfg.max_running = 1;
        cfg.max_queue = 4;
    });
    let addr = server.tcp_addr().unwrap();
    let slow = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(EP_CMP.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply
    });
    let t0 = Instant::now();
    while service.busy() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "slow request never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let shed = roundtrip(
        &server,
        r#"{"op":"simulate","kernel":"is","config":"CMT","deadline_ms":30}"#,
    );
    assert!(
        shed.contains("\"error\":\"shed\""),
        "expired queued request must be shed typed: {shed}"
    );
    assert!(service.shed() >= 1, "the shed counter must increment");
    let slow_reply = slow.join().unwrap();
    assert!(
        slow_reply.contains("\"ok\":true"),
        "the stalled request itself must still finish: {slow_reply}"
    );
    assert!(server.shutdown(Duration::from_secs(10)));
}

/// Predictor gone bad under a line the memo already holds: the *same
/// bytes* are asked before and after their (kernel, config, class) pair is
/// quarantined. The memo remembers only what the line *means* — a
/// `predicted` request for this spec — and the hit ladder decides the tier
/// on every request, so the memoized line moves to the exact tier the
/// moment the auditor says so, byte-identical to an exact request, and
/// books its fallback.
#[test]
fn memoized_predicted_line_moves_to_the_exact_tier_on_quarantine() {
    const PREDICTED: &str =
        r#"{"op":"simulate","kernel":"ep","config":"CMP","fidelity":"predicted"}"#;
    // Audit every fresh prediction, not only a pair's first.
    let (service, server) = start("predict_bias", |cfg| cfg.predict_sample_every = 1);
    let cold = roundtrip(&server, PREDICTED);
    assert!(cold.contains(r#""fidelity":"predicted""#), "{cold}");
    assert_eq!(
        service.predict_auditor().quarantined_pairs(),
        0,
        "EP audits in bounds"
    );
    // The audit cached the exact answer.
    let exact = roundtrip(&server, EP_CMP);
    assert_eq!(
        service.computed(),
        2,
        "the audit's exact run and its baseline"
    );
    assert!(server.shutdown(Duration::from_secs(10)));
    // The model drifts: a daemon whose plan biases every prediction opens
    // the same cache. The line hits there twice — the first hit lets it
    // into the memo, the second is answered out of it — then another spec
    // of the same pair is predicted afresh, audited, and found far out of
    // bounds.
    let dir = service.config().cache_dir.clone();
    let (service, server) = start("predict_bias_drift", |cfg| {
        cfg.cache_dir = dir;
        cfg.predict_sample_every = 1;
        cfg.faults = plan("predict-bias");
    });
    assert_eq!(roundtrip(&server, PREDICTED), cold);
    assert_eq!(roundtrip(&server, PREDICTED), cold);
    let other = roundtrip(
        &server,
        r#"{"op":"simulate","kernel":"ep","config":"CMP","trials":2,"fidelity":"predicted"}"#,
    );
    assert!(other.contains("\"ok\":true"), "{other}");
    assert_eq!(service.predict_auditor().quarantined_pairs(), 1);
    let fallbacks = service.predict_auditor().fallbacks();
    let after = roundtrip(&server, PREDICTED);
    assert_eq!(
        after, exact,
        "a quarantined pair answers from the exact tier"
    );
    assert_ne!(after, cold);
    assert_eq!(service.predict_auditor().fallbacks(), fallbacks + 1);
    assert_eq!(
        service.cache().hits() + service.cache().misses(),
        service.simulate_requests() + service.baseline_fetches(),
    );
    assert!(server.shutdown(Duration::from_secs(10)));
}

/// The reply to a request that arrives while faults are live must never
/// be a half-written line: read the raw byte stream and require exactly
/// one well-formed JSON line per request, even under 1-byte write caps.
#[test]
fn faulted_replies_are_always_whole_lines() {
    let (_service, server) = start("whole_lines", |cfg| {
        cfg.faults = plan("serve-partial-write:100000")
    });
    let stream = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    for _ in 0..3 {
        writer.write_all(EP_CMP.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut replies = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "torn reply line: {line:?}");
        serde_json::parse(line.trim_end()).expect("every reply line parses as JSON");
        replies.push(line.trim_end().to_string());
    }
    assert_eq!(replies[1], replies[0], "hits must match the miss");
    assert_eq!(replies[2], replies[0], "hits must match the miss");
    // No trailing garbage after the last reply.
    drop(writer);
    let mut rest = Vec::new();
    reader
        .get_mut()
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let _ = reader.read_to_end(&mut rest);
    assert!(
        rest.is_empty() || rest.iter().all(|&b| b == b'\n'),
        "stray bytes after replies: {rest:?}"
    );
    assert!(server.shutdown(Duration::from_secs(10)));
}

/// Fault plans are values: two daemons started side by side in one
/// process, one under `serve-conn-kill:1:1,journal-fail:1` and one with no
/// plan. The faulted one fires exactly its budget — one killed
/// connection, one failed append — the clean one fires nothing and never
/// degrades, and both answer the same lines byte for byte.
#[test]
fn two_daemons_with_different_plans_share_a_process() {
    let faults = plan("serve-conn-kill:1:1,journal-fail:1");
    let lines = [EP_CMP, r#"{"op":"simulate","kernel":"is","config":"CMT"}"#];
    let started = Barrier::new(2);
    let run = |name: &str, faults: Faults| {
        let (service, server) = start(name, |cfg| cfg.faults = faults);
        started.wait();
        let (replies, heals): (Vec<String>, Vec<u32>) = lines
            .iter()
            .map(|line| healing_roundtrip(&server, line, 5))
            .unzip();
        let health = roundtrip(&server, r#"{"op":"health"}"#);
        assert!(server.shutdown(Duration::from_secs(10)));
        (service, replies, heals.iter().sum::<u32>(), health)
    };
    let (faulted, clean) = std::thread::scope(|scope| {
        let faulted = scope.spawn(|| run("two_faulted", faults.clone()));
        let clean = scope.spawn(|| run("two_clean", Faults::default()));
        (faulted.join().unwrap(), clean.join().unwrap())
    });
    let (faulted, faulted_replies, faulted_heals, faulted_health) = faulted;
    let (clean, clean_replies, clean_heals, clean_health) = clean;
    for reply in &clean_replies {
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    assert_eq!(faulted_replies, clean_replies, "same lines, same bytes");
    assert_eq!(faults.fired(), (0, 1, 0), "exactly the one kill");
    assert_eq!(faulted_heals, 1, "one resend healed the one kill");
    assert_eq!(
        faulted.cache().put_failures(),
        1,
        "exactly the one failed append"
    );
    assert_eq!(faulted.cache().write_errors(), 1);
    let degraded = |health: &str| {
        let health = serde_json::parse(health).unwrap();
        health["degraded"]["put_failures"].as_u64()
    };
    assert_eq!(degraded(&faulted_health), Some(1), "{faulted_health}");
    assert!(clean.config().faults.is_empty());
    assert_eq!(clean.config().faults.fired(), (0, 0, 0));
    assert_eq!(clean_heals, 0, "no connection of the clean daemon died");
    assert_eq!(
        (clean.cache().put_failures(), clean.cache().write_errors()),
        (0, 0)
    );
    assert_eq!(clean.batch_poisoned(), 0);
    assert_eq!(clean.breaker().trips(), 0);
    assert_eq!(degraded(&clean_health), Some(0), "{clean_health}");
}
