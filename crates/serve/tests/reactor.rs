//! The reactor waits for events, not for time: what that promises, over
//! real sockets.
//!
//! One `#[test]` in its own process: `serve.reactor.wakeups` is a
//! process-wide counter, and every part below reads it as "what the one
//! server in this process did".

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paxsim_serve::{ServeConfig, Server, Service};

/// A client socket of either family.
trait Duplex: Read + Write {
    fn half_close(&self);
    fn read_timeout(&self, t: Duration);
}

impl Duplex for TcpStream {
    fn half_close(&self) {
        self.shutdown(Shutdown::Write).unwrap();
    }
    fn read_timeout(&self, t: Duration) {
        self.set_read_timeout(Some(t)).unwrap();
    }
}

impl Duplex for UnixStream {
    fn half_close(&self) {
        self.shutdown(Shutdown::Write).unwrap();
    }
    fn read_timeout(&self, t: Duration) {
        self.set_read_timeout(Some(t)).unwrap();
    }
}

/// Connect over each family the server listens on.
fn connect_each(server: &Server) -> Vec<(&'static str, Box<dyn Duplex>)> {
    let tcp = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    tcp.set_nodelay(true).unwrap();
    let unix = UnixStream::connect(server.unix_path().unwrap()).unwrap();
    for s in [&tcp as &dyn Duplex, &unix] {
        // A reply that never comes fails the test instead of hanging it.
        s.read_timeout(Duration::from_secs(60));
    }
    vec![("tcp", Box::new(tcp)), ("unix", Box::new(unix))]
}

/// One request, one reply, on a connection of its own.
fn roundtrip(server: &Server, line: &str) -> String {
    let stream = TcpStream::connect(server.tcp_addr().unwrap()).unwrap();
    let mut reader = BufReader::new(stream);
    reader
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.ends_with('\n'), "reply not terminated: {reply:?}");
    reply.trim_end().to_string()
}

fn wakeups() -> u64 {
    paxsim_obs::counter("serve.reactor.wakeups").get()
}

/// Reactor wakeups over `window`, once the counter has stopped moving
/// (whatever the test did last is still being finished until then).
fn wakeups_while_idle(window: Duration) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let before = wakeups();
        std::thread::sleep(Duration::from_millis(50));
        if wakeups() == before {
            break;
        }
        assert!(Instant::now() < deadline, "the reactor never went idle");
    }
    let before = wakeups();
    std::thread::sleep(window);
    wakeups() - before
}

const HITS: [&str; 3] = [
    r#"{"op":"simulate","kernel":"ep","config":"CMP"}"#,
    r#"{"op":"simulate","kernel":"ep","config":"CMT"}"#,
    r#"{"op":"simulate","kernel":"is","config":"Serial"}"#,
];

#[test]
fn reactor_sleeps_until_woken_and_loses_nothing() {
    let dir = std::env::temp_dir().join(format!("paxsim_serve_reactor_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let service = Arc::new(
        Service::open(ServeConfig {
            cache_dir: dir.join("cache"),
            ..ServeConfig::default()
        })
        .unwrap(),
    );
    paxsim_obs::set_enabled(true);
    let sock = dir.join("serve.sock");
    let server = Server::start(service, Some("127.0.0.1:0"), Some(&sock)).unwrap();

    // Compute the hit set, then ask again for the replies a hit gives.
    for line in HITS {
        assert!(roundtrip(&server, line).contains("\"ok\":true"));
    }
    let hit_replies: Vec<String> = HITS.iter().map(|l| roundtrip(&server, l)).collect();
    assert!(wakeups() > 0, "the reactor does not count its wakeups");

    // (a) Idle means asleep: 32 open connections that say nothing cost
    // nothing. A reactor stepped by a timer books hundreds of passes here.
    let idle: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(server.tcp_addr().unwrap()).unwrap())
        .collect();
    roundtrip(&server, HITS[0]); // the 32 before it have been accepted
    let woke = wakeups_while_idle(Duration::from_millis(300));
    assert!(
        woke <= 2,
        "{woke} wakeups in 300 ms with 32 idle connections"
    );
    // A blocked reactor publishes nothing; a scrape reads its counts: the
    // 32, the scraping connection itself, and no job behind the scrape's.
    roundtrip(&server, r#"{"op":"metrics"}"#);
    let gauge = |name| paxsim_obs::gauge(name).get();
    assert_eq!(gauge("serve.reactor.open_connections"), 33.0);
    assert_eq!(gauge("serve.reactor.ready_queue_depth"), 0.0);

    // (c) Half-close under pipelining: 64 requests in one write — hits, a
    // malformed frame, a miss — then FIN. Every reply comes back, in
    // order, before the server closes its half.
    for (family, mut stream) in connect_each(&server) {
        let miss = format!(
            r#"{{"op":"simulate","kernel":"ep","config":"CMP","jitter":{}}}"#,
            7_000 + family.len()
        );
        let mut burst = Vec::new();
        for i in 0..64 {
            match i {
                20 => burst.extend(b"\xff\xfe not utf-8"),
                41 => burst.extend(miss.as_bytes()),
                _ => burst.extend(HITS[i % HITS.len()].as_bytes()),
            }
            burst.push(b'\n');
        }
        stream.write_all(&burst).unwrap();
        stream.half_close();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap(); // returns at the server's EOF
        assert!(all.ends_with('\n'), "{family}: torn last reply");
        let replies: Vec<&str> = all.lines().collect();
        assert_eq!(replies.len(), 64, "{family}: one reply per request");
        for (i, reply) in replies.iter().enumerate() {
            match i {
                20 => assert!(
                    reply.contains("\"error\":\"bad-request\""),
                    "{family}: {reply}"
                ),
                41 => assert!(
                    reply.contains("\"ok\":true") && reply.contains("\"jitter\":70"),
                    "{family}: {reply}"
                ),
                _ => assert_eq!(
                    *reply,
                    hit_replies[i % HITS.len()],
                    "{family}: reply {i} differs from the un-pipelined hit"
                ),
            }
        }
    }

    // (d) Slow reader: 4 MB of replies owed to a client that is not
    // reading. The connection waits for POLLOUT, asleep, and every byte
    // arrives once the client reads again.
    for (family, mut stream) in connect_each(&server) {
        let requests = 4 * 1024 * 1024 / hit_replies[0].len() + 1;
        let answered = || paxsim_obs::counter("serve.inline_hits").get();
        let before = answered();
        let mut burst = Vec::new();
        for _ in 0..requests {
            burst.extend(HITS[0].as_bytes());
            burst.push(b'\n');
        }
        stream.write_all(&burst).unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        while answered() < before + requests as u64 {
            assert!(Instant::now() < deadline, "{family}: burst never answered");
            std::thread::sleep(Duration::from_millis(20));
        }
        let woke = wakeups_while_idle(Duration::from_millis(300));
        assert!(
            woke <= 2,
            "{family}: {woke} wakeups in 300 ms waiting for a reader"
        );
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        for i in 0..requests {
            reply.clear();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(
                reply.trim_end(),
                hit_replies[0],
                "{family}: reply {i} of {requests}"
            );
        }
    }

    // (b) Explicit wakes: nothing is on its way to the blocked reactors
    // but the wake byte, so both of them waking is drain()'s doing (no
    // socket is touched until they have). Each then closes its listener.
    wakeups_while_idle(Duration::ZERO);
    let (addr, woken) = (server.tcp_addr().unwrap(), wakeups());
    server.drain();
    let deadline = Instant::now() + Duration::from_secs(10);
    while wakeups() < woken + 2 {
        assert!(Instant::now() < deadline, "drain() woke no reactor");
        std::thread::sleep(Duration::from_millis(1));
    }
    let refusal = |e: std::io::Error| e.kind() == std::io::ErrorKind::ConnectionRefused;
    while !TcpStream::connect(addr).is_err_and(refusal)
        || !UnixStream::connect(&sock).is_err_and(refusal)
    {
        assert!(Instant::now() < deadline, "a listener outlived drain()");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stopping = Instant::now();
    assert!(
        server.shutdown(Duration::from_secs(10)),
        "idle connections owe nothing"
    );
    assert!(stopping.elapsed() < Duration::from_secs(2), "join was slow");
    drop(idle);
    let _ = std::fs::remove_dir_all(&dir);
}
