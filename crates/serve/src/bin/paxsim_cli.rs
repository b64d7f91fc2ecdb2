//! `paxsim-cli` — command-line client for the paxsim-serve daemon.
//!
//! ```text
//! paxsim-cli (--tcp ADDR | --unix PATH) simulate --kernel K --config C
//!            [--class T] [--trials N] [--jitter N] [--schedule S]
//!            [--deadline-ms N] [--fidelity exact|fast|predicted]
//!            [--concurrency N] [--repeat N]
//! paxsim-cli (--tcp ADDR | --unix PATH) tune --kernel K
//!            [--configs "C1;C2;…"] [--schedules "S1;S2;…"]
//!            [--budget N] [--algo halving|hillclimb] [--margin F]
//!            [--class T] [--trials N] [--jitter N] [--deadline-ms N]
//!            [--fidelity exact|predicted]
//! paxsim-cli (--tcp ADDR | --unix PATH) stats
//! paxsim-cli (--tcp ADDR | --unix PATH) metrics
//! paxsim-cli (--tcp ADDR | --unix PATH) health
//! paxsim-cli (--tcp ADDR | --unix PATH) raw '<json>' [--concurrency N]
//!            [--repeat N]
//! common flags: [--retries N] [--retry-base-ms N] [--pretty]
//! ```
//!
//! Prints the daemon's reply line verbatim on stdout — except `metrics`,
//! which unpacks the reply's Prometheus exposition text so the output can
//! be piped straight to a scrape file, and `--pretty`, which re-renders
//! the reply as indented JSON. Both the verbatim default and the pretty
//! printer are **tolerant of unknown reply fields**: newer daemons stamp
//! extra keys onto replies (`fidelity`, `error_bounds`, …) and the CLI
//! passes them through rather than rejecting them — an old client must
//! keep working against a new daemon. Exits 0 on an `"ok":true` reply,
//! 1 on an error or malformed reply, 2 on usage/transport problems.
//! Transport failures are typed, never panics: connection refused,
//! connection closed mid-reply (EOF before the newline), and a malformed
//! reply each get a distinct `paxsim-cli:` diagnostic on stderr.
//!
//! The client is **self-healing**: transient failures — connect errors,
//! mid-exchange resets/EOF, and `overloaded`/`shed` rejections — are
//! retried up to `--retries` times (default 3) with jittered exponential
//! backoff starting at `--retry-base-ms` (default 25). Resending is safe
//! by construction: a simulate request's identity is its canonical
//! content hash, so the daemon dedupes a retried request against the
//! cache and the single-flight table — the content hash *is* the
//! idempotency key, and a retry can never double-compute or diverge.
//!
//! With `--concurrency N` (persistent connections) and/or `--repeat N`
//! (total request count, round-robined over the connections) the CLI
//! turns into a minimal load driver: identical concurrent requests
//! exercise the daemon's single-flight path the first time and the cache
//! thereafter, and a *set* of CLIs with different kernels exercises the
//! batching path. The reply mode then prints one summary JSON line —
//! request count, ok/error split, wall time, requests/sec, and latency
//! percentiles — and exits 0 only if every reply was `"ok":true`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;

use serde::Value;

fn usage() -> ! {
    eprintln!(
        "usage: paxsim-cli (--tcp ADDR | --unix PATH) <command>\n\
         commands:\n\
         \x20 simulate --kernel K --config C [--class T] [--trials N]\n\
         \x20          [--jitter N] [--schedule S] [--deadline-ms N]\n\
         \x20          [--fidelity exact|fast|predicted]\n\
         \x20          [--concurrency N] [--repeat N]\n\
         \x20 tune --kernel K [--configs \"C1;C2;…\"] [--schedules \"S1;S2;…\"]\n\
         \x20      [--budget N] [--algo halving|hillclimb] [--margin F]\n\
         \x20      [--class T] [--trials N] [--jitter N] [--deadline-ms N]\n\
         \x20      [--fidelity exact|predicted]\n\
         \x20 stats\n\
         \x20 metrics\n\
         \x20 health\n\
         \x20 raw '<json>' [--concurrency N] [--repeat N]\n\
         common flags: [--retries N] [--retry-base-ms N] [--pretty]"
    );
    std::process::exit(2);
}

trait ReadWrite: std::io::Read + Write {}
impl ReadWrite for TcpStream {}
impl ReadWrite for UnixStream {}

/// A transport-layer failure, typed so each mode of dying gets its own
/// diagnostic (and so retry logic can tell them apart from usage errors).
enum Transport {
    /// `connect(2)` itself failed — daemon down, wrong address, refused.
    Connect(std::io::Error),
    /// The exchange started but an I/O call failed (reset, broken pipe).
    Io(std::io::Error),
    /// The peer closed the connection before a full reply line arrived.
    /// `got` is how many bytes of partial reply we saw.
    MidReplyEof { got: usize },
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Transport::Connect(e) => write!(f, "connect failed: {e}"),
            Transport::Io(e) => write!(f, "i/o error mid-exchange: {e}"),
            Transport::MidReplyEof { got } => write!(
                f,
                "connection closed mid-reply ({got} bytes before EOF, no newline)"
            ),
        }
    }
}

/// Jittered exponential backoff, seeded from wall clock + pid. A tiny
/// LCG is plenty: the jitter only needs to decorrelate concurrent
/// clients, not be statistically pristine.
struct Backoff {
    state: u64,
    base_ms: u64,
}

impl Backoff {
    fn new(base_ms: u64) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64)
            .unwrap_or(0);
        Backoff {
            state: nanos ^ (u64::from(std::process::id()) << 17) ^ 0x9e37_79b9_7f4a_7c15,
            base_ms: base_ms.max(1),
        }
    }

    /// Delay before retry number `attempt` (0-based): uniform in
    /// `[cap/2, cap]` where `cap = base * 2^attempt`, capped at ~64x base.
    fn delay(&mut self, attempt: u32) -> std::time::Duration {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let cap = self.base_ms << attempt.min(6);
        let half = (cap / 2).max(1);
        std::time::Duration::from_millis(half + (self.state >> 33) % (half + 1))
    }
}

fn connect(conn: &str) -> Result<Box<dyn ReadWrite>, Transport> {
    if let Some(addr) = conn.strip_prefix("tcp:") {
        let stream = TcpStream::connect(addr).map_err(Transport::Connect)?;
        // One small request, then a wait for its reply: nothing for
        // Nagle's algorithm to batch, only the peer's delayed ACK to wait
        // for.
        stream.set_nodelay(true).map_err(Transport::Connect)?;
        Ok(Box::new(stream))
    } else {
        Ok(Box::new(
            UnixStream::connect(conn.strip_prefix("unix:").unwrap_or(conn))
                .map_err(Transport::Connect)?,
        ))
    }
}

/// One request/reply exchange on an established connection. A clean
/// close before the reply's newline is `MidReplyEof`, not an empty
/// string — a half-reply must never be mistaken for an answer. The
/// request goes out in one write: a line and its newline in two segments
/// cost a delayed-ACK timeout (~40 ms) per request over TCP.
fn exchange(reader: &mut BufReader<Box<dyn ReadWrite>>, line: &str) -> Result<String, Transport> {
    reader
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| reader.get_mut().flush())
        .map_err(Transport::Io)?;
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).map_err(Transport::Io)?;
    if n == 0 || !reply.ends_with('\n') {
        return Err(Transport::MidReplyEof { got: reply.len() });
    }
    Ok(reply.trim_end().to_string())
}

fn roundtrip(conn: &str, line: &str) -> Result<String, Transport> {
    let mut reader = BufReader::new(connect(conn)?);
    exchange(&mut reader, line)
}

/// Is this reply a rejection the daemon explicitly expects us to retry?
/// `overloaded` and `shed` are load transients; `quarantined` and real
/// errors are not (retrying inside the breaker cooldown cannot succeed).
fn retryable_reply(reply: &str) -> bool {
    reply.contains("\"error\":\"overloaded\"") || reply.contains("\"error\":\"shed\"")
}

/// Self-healing round trip: retry transport failures and retryable
/// rejections up to `retries` times with jittered exponential backoff.
/// Safe because requests are idempotent by content hash (see module doc).
fn roundtrip_with_retry(
    conn: &str,
    line: &str,
    retries: u32,
    base_ms: u64,
) -> Result<String, Transport> {
    let mut backoff = Backoff::new(base_ms);
    let mut attempt = 0u32;
    loop {
        match roundtrip(conn, line) {
            Ok(reply) if retryable_reply(&reply) && attempt < retries => {
                eprintln!(
                    "paxsim-cli: daemon shed the request (attempt {}), backing off…",
                    attempt + 1
                );
            }
            Ok(reply) => return Ok(reply),
            Err(e) if attempt < retries => {
                eprintln!("paxsim-cli: {e} (attempt {}), backing off…", attempt + 1);
            }
            Err(e) => return Err(e),
        }
        std::thread::sleep(backoff.delay(attempt));
        attempt += 1;
    }
}

/// One persistent load-driver connection: send/recv `line` `count` times,
/// returning per-request latencies (ms), the ok-reply count, and how many
/// retries healed a dropped connection. A transport failure mid-stream
/// reconnects and *resends the same request* (idempotent by content
/// hash), up to `retries` attempts per request.
/// Per-connection load result: latencies (ms), ok-reply count, heals.
type DriveResult = Result<(Vec<f64>, usize, usize), Transport>;

fn drive(conn: &str, line: &str, count: usize, retries: u32, base_ms: u64) -> DriveResult {
    let mut backoff = Backoff::new(base_ms);
    let mut reader = BufReader::new(connect(conn)?);
    let mut latencies = Vec::with_capacity(count);
    let mut ok = 0usize;
    let mut healed = 0usize;
    for _ in 0..count {
        let t0 = std::time::Instant::now();
        let mut attempt = 0u32;
        let reply = loop {
            match exchange(&mut reader, line) {
                Ok(reply) => break reply,
                Err(e) if attempt < retries => {
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                    healed += 1;
                    // The old connection is dead either way; replace it.
                    // A failed reconnect leaves the dead one in place, so
                    // the next exchange fails and burns another attempt.
                    if let Ok(fresh) = connect(conn) {
                        reader = BufReader::new(fresh);
                    }
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        };
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        if reply.contains("\"ok\":true") {
            ok += 1;
        }
    }
    Ok((latencies, ok, healed))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Fan `line` out over `concurrency` persistent connections, `repeat`
/// total requests; print a one-line JSON summary. Exit 0 iff every reply
/// was ok.
fn run_load(
    conn: &str,
    line: &str,
    concurrency: usize,
    repeat: usize,
    retries: u32,
    base_ms: u64,
) -> ! {
    let concurrency = concurrency.max(1);
    let repeat = repeat.max(1).max(concurrency);
    let per = repeat / concurrency;
    let extra = repeat % concurrency;
    let t0 = std::time::Instant::now();
    let results: Vec<DriveResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|i| {
                let count = per + usize::from(i < extra);
                scope.spawn(move || drive(conn, line, count, retries, base_ms))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut ok = 0usize;
    let mut io_errors = 0usize;
    let mut retried = 0usize;
    for r in results {
        match r {
            Ok((lat, n_ok, healed)) => {
                ok += n_ok;
                retried += healed;
                latencies.extend(lat);
            }
            Err(e) => {
                eprintln!("paxsim-cli: connection gave up after retries: {e}");
                io_errors += 1;
            }
        }
    }
    // total_cmp, not partial_cmp().expect(): a NaN latency (clock skew,
    // overflow in the ms conversion) must not panic the summary.
    latencies.sort_by(f64::total_cmp);
    let requests = latencies.len();
    let summary = Value::Object(vec![
        (
            "ok".to_string(),
            Value::Bool(ok == requests && io_errors == 0),
        ),
        ("requests".to_string(), Value::UInt(requests as u64)),
        ("ok_replies".to_string(), Value::UInt(ok as u64)),
        (
            "error_replies".to_string(),
            Value::UInt((requests - ok) as u64),
        ),
        ("io_errors".to_string(), Value::UInt(io_errors as u64)),
        ("retries".to_string(), Value::UInt(retried as u64)),
        ("concurrency".to_string(), Value::UInt(concurrency as u64)),
        ("wall_s".to_string(), Value::Float(wall)),
        (
            "rps".to_string(),
            Value::Float(if wall > 0.0 {
                requests as f64 / wall
            } else {
                0.0
            }),
        ),
        (
            "p50_ms".to_string(),
            Value::Float(percentile(&latencies, 0.5)),
        ),
        (
            "p99_ms".to_string(),
            Value::Float(percentile(&latencies, 0.99)),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&summary).expect("summary renders infallibly")
    );
    std::process::exit(if ok == requests && io_errors == 0 {
        0
    } else {
        1
    });
}

/// Re-render one reply line as indented JSON, preserving key order and
/// passing every field through — known or not. Tolerance is the point:
/// a daemon newer than this client stamps extra keys onto replies
/// (`fidelity`, `error_bounds`, next year's additions) and the pretty
/// printer must show them, never reject them. Non-JSON input comes back
/// verbatim — a transport diagnostic must not be eaten by its own
/// formatter.
fn pretty_reply(reply: &str) -> String {
    match serde_json::parse(reply) {
        Ok(v) => {
            let mut out = String::new();
            pretty_value(&v, 0, &mut out);
            out
        }
        Err(_) => reply.to_string(),
    }
}

fn pretty_value(v: &Value, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent + 1);
    match v {
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(
                    &serde_json::to_string(&Value::String(k.clone()))
                        .expect("string key renders infallibly"),
                );
                out.push_str(": ");
                pretty_value(val, indent + 1, out);
                if i + 1 < entries.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                pretty_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        scalar => {
            out.push_str(&serde_json::to_string(scalar).expect("scalar value renders infallibly"))
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let mut conn: Option<String> = None;
    let mut command: Option<String> = None;
    let mut fields: Vec<(String, Value)> = Vec::new();
    let mut raw: Option<String> = None;
    let mut concurrency: usize = 1;
    let mut repeat: usize = 1;
    let mut retries: u32 = 3;
    let mut retry_base_ms: u64 = 25;
    let mut pretty = false;
    let value = |it: &mut dyn Iterator<Item = &String>, flag: &str| -> String {
        it.next().cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tcp" => conn = Some(format!("tcp:{}", value(&mut it, "--tcp"))),
            "--unix" => conn = Some(format!("unix:{}", value(&mut it, "--unix"))),
            "simulate" | "tune" | "stats" | "metrics" | "health" if command.is_none() => {
                command = Some(arg.clone())
            }
            "raw" if command.is_none() => {
                command = Some(arg.clone());
                raw = Some(value(&mut it, "raw"));
            }
            "--kernel" | "--config" | "--class" | "--schedule" | "--fidelity" | "--algo" => {
                let key = arg.trim_start_matches("--").to_string();
                fields.push((key, Value::String(value(&mut it, arg))));
            }
            // Schedule clauses contain commas ("dynamic,2"), so list
            // flags split on ';' instead.
            "--configs" | "--schedules" => {
                let key = arg.trim_start_matches("--").to_string();
                let items: Vec<Value> = value(&mut it, arg)
                    .split(';')
                    .map(|s| Value::String(s.trim().to_string()))
                    .filter(|v| v.as_str().is_some_and(|s| !s.is_empty()))
                    .collect();
                fields.push((key, Value::Array(items)));
            }
            "--margin" => {
                let f: f64 = value(&mut it, arg).parse().unwrap_or_else(|_| {
                    eprintln!("{arg} needs a number");
                    usage()
                });
                fields.push(("margin".to_string(), Value::Float(f)));
            }
            "--pretty" => pretty = true,
            "--concurrency" | "--repeat" | "--retries" | "--retry-base-ms" => {
                let n: u64 = value(&mut it, arg).parse().unwrap_or_else(|_| {
                    eprintln!("{arg} needs a number");
                    usage()
                });
                match arg.as_str() {
                    "--concurrency" => concurrency = n as usize,
                    "--repeat" => repeat = n as usize,
                    "--retries" => retries = n as u32,
                    _ => retry_base_ms = n.max(1),
                }
            }
            "--trials" | "--jitter" | "--deadline-ms" | "--budget" => {
                let key = arg.trim_start_matches("--").replace('-', "_");
                let n: u64 = value(&mut it, arg).parse().unwrap_or_else(|_| {
                    eprintln!("{arg} needs a number");
                    usage()
                });
                fields.push((key, Value::UInt(n)));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    let (Some(conn), Some(command)) = (conn, command) else {
        usage();
    };
    let line = match command.as_str() {
        "stats" => r#"{"op":"stats"}"#.to_string(),
        "metrics" => r#"{"op":"metrics"}"#.to_string(),
        "health" => r#"{"op":"health"}"#.to_string(),
        "raw" => raw.expect("raw command captured its payload"),
        "simulate" | "tune" => {
            let mut entries = vec![("op".to_string(), Value::String(command.clone()))];
            entries.extend(fields);
            serde_json::to_string(&Value::Object(entries)).expect("request renders infallibly")
        }
        _ => usage(),
    };
    if concurrency > 1 || repeat > 1 {
        if command == "stats" || command == "metrics" || command == "health" {
            eprintln!("--concurrency/--repeat apply to simulate, tune and raw only");
            usage();
        }
        run_load(&conn, &line, concurrency, repeat, retries, retry_base_ms);
    }
    match roundtrip_with_retry(&conn, &line, retries, retry_base_ms) {
        Ok(reply) => {
            let parsed = serde_json::parse(&reply).ok();
            if parsed.is_none() {
                eprintln!("paxsim-cli: malformed reply (not JSON): {reply}");
                std::process::exit(1);
            }
            let ok = parsed
                .as_ref()
                .and_then(|v| v["ok"].as_bool())
                .unwrap_or(false);
            // `metrics` unwraps the exposition text (real newlines) for
            // scrapers; everything else prints the reply line verbatim.
            match parsed
                .filter(|_| ok && command == "metrics")
                .and_then(|v| v["prometheus"].as_str().map(str::to_string))
            {
                Some(text) => print!("{text}"),
                None if pretty => println!("{}", pretty_reply(&reply)),
                None => println!("{reply}"),
            }
            std::process::exit(if ok { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("paxsim-cli: {conn}: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_tcp_round_trips_do_not_wait_for_delayed_acks() {
        let dir = std::env::temp_dir().join(format!("paxsim_cli_tcp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = paxsim_serve::Service::open(paxsim_serve::ServeConfig {
            cache_dir: dir.clone(),
            ..Default::default()
        })
        .unwrap();
        let server =
            paxsim_serve::Server::start(std::sync::Arc::new(service), Some("127.0.0.1:0"), None)
                .unwrap();
        let conn = format!("tcp:{}", server.tcp_addr().unwrap());
        let line = r#"{"op":"simulate","kernel":"ep","config":"CMP"}"#;
        let mut reader = BufReader::new(connect(&conn).ok().expect("connect"));
        let cold = exchange(&mut reader, line).ok().expect("cold exchange");
        assert!(cold.contains("\"ok\":true"), "{cold}");
        // With the line and its newline in separate segments and Nagle on,
        // each of these took ~43 ms: 2.16 s for the fifty.
        let t0 = std::time::Instant::now();
        for _ in 0..50 {
            let hit = exchange(&mut reader, line).ok().expect("cached exchange");
            assert_eq!(hit, cold);
        }
        let took = t0.elapsed();
        assert!(
            took < std::time::Duration::from_secs(1),
            "50 cached round trips over TCP took {took:?}"
        );
        drop(reader);
        assert!(server.shutdown(std::time::Duration::from_secs(10)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pretty_reply_tolerates_overstuffed_replies() {
        // A reply from a daemon far newer than this client: the four
        // standard result fields plus a pile the client has never heard
        // of — trailing scalars, a nested object, an array, null. The
        // printer must render every one (no field left behind, no
        // error), and the output must parse back to the same value.
        let overstuffed = concat!(
            r#"{"ok":true,"hash":"00000000deadbeef","spec":{"kernel":"ep"},"#,
            r#""result":{"sides":[]},"fidelity":"predicted","#,
            r#""error_bounds":{"wall":0.25,"cpi":0.4},"#,
            r#""x_future_field":[1,2.5,"three"],"x_null":null,"x_flag":false}"#
        );
        let pretty = pretty_reply(overstuffed);
        for needle in [
            "\"fidelity\": \"predicted\"",
            "\"error_bounds\"",
            "\"x_future_field\"",
            "\"x_null\": null",
            "\"x_flag\": false",
        ] {
            assert!(pretty.contains(needle), "{needle} missing from:\n{pretty}");
        }
        assert!(pretty.lines().count() > 1, "pretty output is multi-line");
        let reparsed = serde_json::parse(&pretty).expect("pretty output stays valid JSON");
        let original = serde_json::parse(overstuffed).unwrap();
        assert_eq!(
            serde_json::to_string(&reparsed).unwrap(),
            serde_json::to_string(&original).unwrap(),
            "pretty-printing must preserve every field and their order"
        );
        // Non-JSON diagnostics pass through untouched.
        assert_eq!(pretty_reply("not json"), "not json");
    }
}
