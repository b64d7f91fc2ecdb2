//! End-to-end loopback tests: a real [`Server`] on real sockets, driven
//! by concurrent TCP/Unix clients, proving the serving tentpole's
//! contracts — coalescing, byte-identical cache hits, typed overload +
//! graceful drain (replies flushed, threads joined, listener closed),
//! and corruption-triggered recompute against the sharded cache.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paxsim_core::faultinject::Faults;
use paxsim_serve::{ServeConfig, Server, Service};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("paxsim_serve_loopback")
        .join(name);
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

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        assert!(reply.ends_with('\n'), "reply not terminated: {reply:?}");
        reply.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn wait_until(what: &str, deadline: Duration, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

const EP_CMP: &str = r#"{"op":"simulate","kernel":"ep","config":"CMP"}"#;

#[test]
fn concurrent_identical_requests_compute_exactly_once() {
    let (service, server) = start("coalesce", |_| {});
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let server = &server;
                scope.spawn(move || Client::connect(server).roundtrip(EP_CMP))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(r.contains("\"ok\":true"), "{r}");
        assert_eq!(r, &replies[0], "coalesced replies must be identical");
    }
    // Exactly two computations happened: the request itself plus its
    // serial-baseline sub-request — once each, despite four clients.
    assert_eq!(service.computed(), 2);
    // Two distinct traces built (1-thread serial, 2-thread CMP).
    assert_eq!(service.store().builds(), 2);
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn cache_hit_is_byte_identical_and_does_no_engine_work() {
    let (service, server) = start("hit", |_| {});
    let mut client = Client::connect(&server);
    let cold = client.roundtrip(EP_CMP);
    assert!(cold.contains("\"ok\":true"), "{cold}");
    let builds = service.store().builds();
    let computed = service.computed();
    let hot = client.roundtrip(EP_CMP);
    assert_eq!(cold, hot, "hit must be byte-identical to the cold miss");
    assert_eq!(service.store().builds(), builds, "hit built zero traces");
    assert_eq!(service.computed(), computed, "hit ran zero engine cells");
    assert!(service.cache().hits() >= 1, "hit counter must increment");
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn a_field_given_twice_is_refused_over_the_wire() {
    // Regression: the parser kept the first of a repeated key where most
    // clients keep the last, so these were answered — `Serial` for `CMP`,
    // a simulate for a stats — as requests their senders did not mean.
    let (service, server) = start("dup_keys", |_| {});
    let mut client = Client::connect(&server);
    for (line, field) in [
        (
            r#"{"op":"simulate","kernel":"ep","config":"Serial","config":"CMP"}"#,
            "config",
        ),
        (
            r#"{"op":"simulate","op":"stats","kernel":"ep","config":"CMP"}"#,
            "op",
        ),
        (r#"{"op":"tune","kernel":"ep","kernel":"cg"}"#, "kernel"),
        (r#"{"op":"stats","op":"stats"}"#, "op"),
    ] {
        let reply = client.roundtrip(line);
        let v = serde_json::parse(&reply).unwrap();
        assert_eq!(v["error"].as_str(), Some("bad-request"), "{line}: {reply}");
        let detail = v["detail"].as_str().unwrap();
        assert!(
            detail.contains(&format!("{field}: given more than once")),
            "{line}: {reply}"
        );
    }
    assert_eq!(
        (service.simulate_requests(), service.computed()),
        (0, 0),
        "a refused line reaches neither the cache nor the engine"
    );
    // Typed, in order, and the connection keeps serving.
    assert!(client.roundtrip(EP_CMP).contains("\"ok\":true"));
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn a_machine_override_with_a_repeated_or_unknown_key_is_refused_over_the_wire() {
    // Regression: inside `machine` the derived deserializer kept the first
    // of a repeated key and ignored an unknown one, so both lines below
    // were answered as the stock Paxville machine.
    let (service, server) = start("machine_keys", |_| {});
    let mut client = Client::connect(&server);
    let full =
        serde_json::to_string(&paxsim_machine::config::MachineConfig::paxville_smp()).unwrap();
    for (machine, want) in [
        (
            full.replacen(r#""l2_lat":28"#, r#""l2_lat":28,"l2_lat":99"#, 1),
            "machine.l2_lat: given more than once",
        ),
        (
            full.replacen(r#""ways":8"#, r#""ways":8,"wayz":4"#, 1),
            "machine.l1d.wayz: unknown field",
        ),
    ] {
        assert_ne!(machine, full);
        let line =
            format!(r#"{{"op":"simulate","kernel":"ep","config":"CMP","machine":{machine}}}"#);
        let reply = client.roundtrip(&line);
        let v = serde_json::parse(&reply).unwrap();
        assert_eq!(v["error"].as_str(), Some("bad-request"), "{reply}");
        assert!(v["detail"].as_str().unwrap().contains(want), "{reply}");
    }
    assert_eq!(
        (service.simulate_requests(), service.computed()),
        (0, 0),
        "a refused override reaches neither the cache nor the engine"
    );
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn overload_rejects_typed_and_drain_finishes_in_flight() {
    // One running slot, zero queue slots; the first computation is
    // stalled 400 ms by an injected slow fault so the second distinct
    // request meets a full daemon.
    let (service, server) = start("overload", |cfg| {
        cfg.faults = plan("cell-slow:0:400:1");
        cfg.max_running = 1;
        cfg.max_queue = 0;
    });
    let mut slow = Client::connect(&server);
    let mut fast = Client::connect(&server);
    let mut late = Client::connect(&server);
    slow.send(EP_CMP);
    wait_until("slow request admitted", Duration::from_secs(5), || {
        service.busy() > 0
    });
    let rejected = fast.roundtrip(r#"{"op":"simulate","kernel":"cg","config":"CMP"}"#);
    assert!(
        rejected.contains("\"error\":\"overloaded\""),
        "full daemon must reject typed: {rejected}"
    );
    // Drain while the slow computation is still in flight: it must
    // finish and reply; new misses must be refused.
    server.drain();
    let slow_reply = slow.recv();
    assert!(
        slow_reply.contains("\"ok\":true"),
        "in-flight work must finish during drain: {slow_reply}"
    );
    let refused = late.roundtrip(r#"{"op":"simulate","kernel":"is","config":"CMP"}"#);
    assert!(
        refused.contains("\"error\":\"draining\""),
        "draining daemon must refuse new work: {refused}"
    );
    let stats = late.roundtrip(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"draining\":true"), "{stats}");
    assert!(stats.contains("\"rejected_overload\":1"), "{stats}");
    assert!(
        server.shutdown(Duration::from_secs(10)),
        "drain must reach quiescence"
    );
}

#[test]
fn shutdown_joins_every_handler_and_flushes_in_flight_replies() {
    // Regression for the detached-handler bug: the PR-4 server spawned
    // reply threads it never joined, so shutdown could tear the process
    // down while a reply was still being written. Stall a computation,
    // shut down while it is mid-flight, and require that `shutdown`
    // (a) reports a clean drain and (b) returns only after the reply
    // bytes reached the socket — readable afterwards even though every
    // server thread is already joined.
    let (service, server) = start("drain_join", |cfg| cfg.faults = plan("cell-slow:0:300:1"));
    let mut client = Client::connect(&server);
    client.send(EP_CMP);
    wait_until("slow request admitted", Duration::from_secs(5), || {
        service.busy() > 0
    });
    assert!(
        server.shutdown(Duration::from_secs(10)),
        "shutdown must wait for the in-flight reply, not abandon it"
    );
    let reply = client.recv();
    assert!(
        reply.contains("\"ok\":true"),
        "reply flushed before the handlers were joined: {reply}"
    );
}

#[test]
fn draining_closes_the_listener_to_new_connections() {
    let (_service, server) = start("drain_refuse", |_| {});
    let addr = server.tcp_addr().unwrap();
    let mut established = Client::connect(&server);
    // One roundtrip proves the reactor *accepted* this connection (a
    // connect alone only reaches the OS backlog, which the drain below
    // resets along with the listener).
    assert!(established
        .roundtrip(r#"{"op":"stats"}"#)
        .contains("\"ok\":true"));
    server.drain();
    // The reactor drops its listener on the next pass; from then on the
    // OS refuses new connects outright instead of parking them in a
    // backlog nobody will accept.
    wait_until("listener closed", Duration::from_secs(5), || {
        TcpStream::connect(addr).is_err()
    });
    // Connections established before the drain keep serving.
    let stats = established.roundtrip(r#"{"op":"stats"}"#);
    assert!(stats.contains("\"draining\":true"), "{stats}");
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn bitflipped_disk_entry_is_recomputed_not_served() {
    let dir = tmp("bitflip");
    // The parallel ep/CMP record lands in the shard its content hash
    // selects; corrupt that shard's journal, not a monolithic file.
    let hash = paxsim_core::hash::StudySpec::new("ep", "CMP")
        .resolve()
        .unwrap()
        .content_hash();
    let shard = paxsim_serve::cache::shard_index(hash, paxsim_serve::cache::DEFAULT_SHARDS);
    let journal = dir.join(paxsim_serve::cache::shard_file_name(shard));
    let cold = {
        let service = Arc::new(
            Service::open(ServeConfig {
                cache_dir: dir.clone(),
                ..ServeConfig::default()
            })
            .unwrap(),
        );
        let server = Server::start(service.clone(), Some("127.0.0.1:0"), None).unwrap();
        let cold = Client::connect(&server).roundtrip(EP_CMP);
        assert!(cold.contains("\"ok\":true"), "{cold}");
        assert!(server.shutdown(Duration::from_secs(10)));
        cold
    };
    // Corrupt the *parallel* record (the last journal line); the serial
    // baseline record stays intact.
    let data = std::fs::read(&journal).unwrap();
    let body = std::str::from_utf8(&data).unwrap().trim_end();
    let last_line_start = body.rfind('\n').map(|i| i + 1).unwrap_or(0);
    paxsim_core::faultinject::flip_bit(&journal, last_line_start as u64 + 40).unwrap();
    // Restart over the corrupted cache.
    let service = Arc::new(
        Service::open(ServeConfig {
            cache_dir: dir,
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    assert_eq!(
        service.cache().corrupt_dropped(),
        1,
        "CRC must catch the flipped bit"
    );
    let server = Server::start(service.clone(), Some("127.0.0.1:0"), None).unwrap();
    let recomputed = Client::connect(&server).roundtrip(EP_CMP);
    assert_eq!(
        recomputed, cold,
        "recomputed result must match the original, never the corrupt record"
    );
    assert_eq!(
        service.computed(),
        1,
        "exactly the corrupted cell recomputes"
    );
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn stats_counters_conserve_under_coalescing_and_deadline() {
    // Every cache lookup books exactly one tier counter, so
    // `hits + misses` must equal simulate requests plus serial-baseline
    // sub-fetches — even when four clients coalesce onto one flight
    // (riders re-check with the stats-neutral `peek`) and a watchdog
    // deadline cancels a computation mid-flight.
    let (service, server) = start("conserve", |cfg| cfg.faults = plan("cell-slow:0:60:1"));
    let mut client = Client::connect(&server);
    // One simulate request whose computation the watchdog cancels.
    let dead =
        client.roundtrip(r#"{"op":"simulate","kernel":"cg","config":"CMP","deadline_ms":1}"#);
    assert!(dead.contains("\"error\":\"deadline\""), "{dead}");
    // Four identical cold requests race onto a coalesced flight.
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let server = &server;
                scope.spawn(move || Client::connect(server).roundtrip(EP_CMP))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &replies {
        assert!(r.contains("\"ok\":true"), "{r}");
        assert_eq!(r, &replies[0], "coalesced replies must be identical");
    }
    // Two repeat requests served straight from cache.
    assert_eq!(client.roundtrip(EP_CMP), replies[0]);
    assert_eq!(client.roundtrip(EP_CMP), replies[0]);
    let simulate_requests = 1 + 4 + 2;
    // The cancelled cell's detached thread may still be mid-way
    // through its own baseline fetch; conservation re-converges the
    // moment both of its sides (fetch counter, cache lookup) settle.
    wait_until("counter conservation", Duration::from_secs(5), || {
        service.cache().hits() + service.cache().misses()
            == simulate_requests + service.baseline_fetches()
    });
    let stats = client.roundtrip(r#"{"op":"stats"}"#);
    let v = serde_json::parse(&stats).unwrap();
    let led = v["inflight"]["led"].as_u64().unwrap();
    let joined = v["inflight"]["joined"].as_u64().unwrap();
    // Flights: the deadline request led one; the four coalesced
    // requests account for at most four slots (a straggler that
    // arrives after the flight lands hits the cache instead) and at
    // least one leader — never more, or the double-check re-counted.
    assert!(led >= 2, "{stats}");
    assert!((2..=5).contains(&(led + joined)), "{stats}");
    assert!(v["baseline_fetches"].as_u64().unwrap() >= 1, "{stats}");
    assert!(service.cache().hits() >= 2, "repeats must hit: {stats}");
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn injected_cell_panic_does_not_drop_other_clients() {
    let (_service, server) = start("panic", |cfg| cfg.faults = plan("cell-panic:0:1"));
    let kernels = ["ep", "cg", "is"];
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = kernels
            .iter()
            .map(|k| {
                let server = &server;
                let line = format!(r#"{{"op":"simulate","kernel":"{k}","config":"HT on -2-1"}}"#);
                scope.spawn(move || Client::connect(server).roundtrip(&line))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (k, r) in kernels.iter().zip(&replies) {
        assert!(
            r.contains("\"ok\":true"),
            "{k} client must survive the injected panic: {r}"
        );
    }
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn batch_leader_panic_does_not_strand_followers() {
    // Regression: riders in a gather window park on the group's condvar
    // until the leader publishes a result. A leader whose sweep panicked
    // published *nothing*, so every follower hung until its client gave
    // up. The batcher now marks the group poisoned and each rider re-runs
    // its own request solo — three compatible concurrent requests through
    // a wide window with the leader's sweep shot down must all answer ok,
    // and the loopback replies must be byte-identical to fault-free runs.
    let kernels = ["ep", "cg", "is"];
    let line = |k: &str| format!(r#"{{"op":"simulate","kernel":"{k}","config":"CMP"}}"#);
    let faulted: Vec<String> = {
        let (service, server) = start("batch_poison", |cfg| {
            cfg.faults = plan("serve-batch-panic:1");
            cfg.batch_window_ms = 100;
        });
        let replies: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = kernels
                .iter()
                .map(|k| {
                    let server = &server;
                    let line = line(k);
                    scope.spawn(move || Client::connect(server).roundtrip(&line))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            service.batch_poisoned() >= 1,
            "the injected leader panic must actually poison a batch"
        );
        assert!(server.shutdown(Duration::from_secs(10)));
        replies
    };
    let (_service, server) = start("batch_poison_ref", |_| {});
    for (k, faulted_reply) in kernels.iter().zip(&faulted) {
        assert!(
            faulted_reply.contains("\"ok\":true"),
            "{k} rider must not be stranded: {faulted_reply}"
        );
        let clean = Client::connect(&server).roundtrip(&line(k));
        assert_eq!(
            faulted_reply, &clean,
            "{k} re-run reply must be byte-identical to a fault-free run"
        );
    }
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn health_endpoint_reports_readiness_shards_and_breaker() {
    let (_service, server) = start("health", |_| {});
    let mut client = Client::connect(&server);
    let h = client.roundtrip(r#"{"op":"health"}"#);
    let v = serde_json::parse(&h).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true), "{h}");
    assert_eq!(v["status"].as_str(), Some("ready"), "{h}");
    assert!(v["uptime_ms"].as_u64().is_some(), "{h}");
    assert_eq!(
        v["breaker"]["trips"].as_u64(),
        Some(0),
        "fresh daemon has no breaker trips: {h}"
    );
    let shards = match &v["shards"] {
        serde::Value::Array(a) => a.len(),
        other => panic!("health.shards must be an array, got {other:?}"),
    };
    assert_eq!(
        shards,
        paxsim_serve::cache::DEFAULT_SHARDS,
        "one health entry per shard: {h}"
    );
    assert_eq!(v["degraded"]["put_failures"].as_u64(), Some(0), "{h}");
    // Draining flips the reported status while existing connections keep
    // being answered — exactly what an orchestrator's readiness probe
    // needs to take the instance out of rotation before the drain ends.
    server.drain();
    let h2 = client.roundtrip(r#"{"op":"health"}"#);
    let v2 = serde_json::parse(&h2).unwrap();
    assert_eq!(v2["status"].as_str(), Some("draining"), "{h2}");
    assert_eq!(v2["ok"].as_bool(), Some(true), "{h2}");
    assert!(server.shutdown(Duration::from_secs(10)));
}

#[test]
fn unix_socket_serves_the_same_protocol() {
    let dir = tmp("unix");
    let sock = dir.join("serve.sock");
    std::fs::create_dir_all(&dir).unwrap();
    let service = Arc::new(
        Service::open(ServeConfig {
            cache_dir: dir.join("cache"),
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    let server = Server::start(service.clone(), None, Some(&sock)).unwrap();
    let stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(EP_CMP.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(server.shutdown(Duration::from_secs(10)));
    assert!(!sock.exists(), "socket file removed on shutdown");
}
