//! The daemon's process-level contracts, through the real binaries: a
//! `paxsim-serve` on a Unix socket in a fresh directory, driven by
//! `paxsim-cli`. Readiness is the `listening on unix` line the daemon
//! prints and flushes; every spawned daemon is killed and reaped when its
//! guard drops, a failed assertion included.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use serde::Value;

const EP_CMP: &[&str] = &["simulate", "--kernel", "ep", "--config", "CMP"];
const TUNE: &[&str] = &[
    "tune",
    "--kernel",
    "ep",
    "--configs",
    "CMP;CMT",
    "--schedules",
    "static",
    "--budget",
    "8",
];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("paxsim_serve_daemon_{}", std::process::id()))
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn parse(reply: &str) -> Value {
    serde_json::parse(reply).unwrap_or_else(|e| panic!("{e:?}: {reply}"))
}

/// `paxsim-cli --unix SOCK ARGS…`: exit code, stdout, stderr.
fn cli(sock: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paxsim-cli"))
        .arg("--unix")
        .arg(sock)
        .args(args)
        .output()
        .expect("run paxsim-cli");
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap().trim_end().to_string();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// The value of series `name` in a scrape: the line whose first token
/// is the name.
fn metric(scrape: &str, name: &str) -> Option<f64> {
    scrape.lines().find_map(|l| {
        let mut tokens = l.split_whitespace();
        (tokens.next() == Some(name)).then(|| tokens.next()?.parse().ok())?
    })
}

/// A spawned `paxsim-serve`, killed and reaped on drop.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    sock: PathBuf,
}

impl Daemon {
    /// `paxsim-serve` on `dir/serve.sock` over `dir/cache`, with
    /// `PAXSIM_FAULTS` set to `faults`.
    fn spawn(dir: &Path, faults: &str) -> Daemon {
        let sock = dir.join("serve.sock");
        let mut child = Command::new(env!("CARGO_BIN_EXE_paxsim-serve"))
            .arg("--unix")
            .arg(&sock)
            .arg("--cache")
            .arg(dir.join("cache"))
            .env("PAXSIM_FAULTS", faults)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn paxsim-serve");
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdout,
            sock,
        }
    }

    /// The next line the daemon prints; `None` once it has exited.
    fn line(&mut self) -> Option<String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .expect("read daemon stdout");
        (n > 0).then(|| line.trim_end().to_string())
    }

    /// A daemon that has said it listens.
    fn start(dir: &Path, faults: &str) -> Daemon {
        let mut d = Daemon::spawn(dir, faults);
        let ready = format!("paxsim-serve: listening on unix {}", d.sock.display());
        while let Some(line) = d.line() {
            if line == ready {
                return d;
            }
        }
        panic!("paxsim-serve exited before it listened")
    }

    /// The reply to `args`, which must be ok.
    fn ask(&self, args: &[&str]) -> String {
        let (code, out, err) = cli(&self.sock, args);
        assert_eq!(code, Some(0), "paxsim-cli {args:?}: {out} {err}");
        out
    }

    fn json(&self, args: &[&str]) -> Value {
        parse(&self.ask(args))
    }

    /// SIGTERM: the daemon drains, exits 0 and removes its socket file.
    fn drain(mut self) {
        extern "C" {
            // POSIX kill(2), declared directly as `main.rs` declares signal(2).
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        // SAFETY: kill(2) takes no pointers, and the pid is our own child,
        // not yet waited for, so it names no other process.
        assert_eq!(unsafe { kill(self.child.id() as i32, SIGTERM) }, 0);
        let status = self.child.wait().unwrap();
        assert_eq!(status.code(), Some(0), "the drain must exit 0");
        assert!(!self.sock.exists(), "socket file not removed on drain");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn the_clean_daemon_keeps_its_contracts() {
    let dir = tmp("clean");
    let d = Daemon::start(&dir, "");

    // Miss -> hit: the same bytes, one memory-tier hit booked.
    let hit = d.ask(EP_CMP);
    assert_eq!(d.ask(EP_CMP), hit, "cache hit is not byte-identical");
    assert_eq!(d.json(&["stats"])["cache"]["mem_hits"].as_u64(), Some(1));

    // The predicted tier repeats byte-identical from its own key space,
    // says what it is, and leaves the exact reply untouched.
    let predicted = [EP_CMP, &["--fidelity", "predicted"]].concat();
    let pred = d.ask(&predicted);
    assert_eq!(d.ask(&predicted), pred, "predicted hit differs");
    let v = parse(&pred);
    assert_eq!(v["fidelity"].as_str(), Some("predicted"), "{pred}");
    assert!(v.get("error_bounds").is_some(), "{pred}");
    assert_eq!(
        d.ask(EP_CMP),
        hit,
        "predicted traffic moved the exact reply"
    );
    assert_eq!(d.json(&["stats"])["predict"]["served"].as_u64(), Some(1));

    // A tune replays byte-identical, and the result cache's shards are
    // all the daemon writes.
    let tune = d.ask(TUNE);
    assert_eq!(d.ask(TUNE), tune, "finished tune did not replay");
    for entry in std::fs::read_dir(dir.join("cache")).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let n = name
            .strip_prefix("shard-")
            .and_then(|r| r.strip_suffix(".jsonl"));
        assert!(
            n.is_some_and(|n| n.bytes().all(|b| b.is_ascii_digit())),
            "cache directory holds more than shards: {name}"
        );
    }
    // Its winner and score are the exhaustive sweep's, named by the
    // canonical config names the reply echoes in request order.
    let v = parse(&tune);
    let mean = |config| {
        let reply = d.json(&["simulate", "--kernel", "ep", "--config", config]);
        reply["result"]["sides"][0]["speedup"]["mean"]
            .as_f64()
            .unwrap()
    };
    let (cmp, cmt) = (mean("CMP"), mean("CMT"));
    let (best, score) = if cmp >= cmt { (0, cmp) } else { (1, cmt) };
    let canon = &v["request"]["configs"][best];
    assert_eq!(v["tune"]["best_config"].as_str(), canon.as_str(), "{tune}");
    assert_eq!(v["tune"]["speedup"].as_f64(), Some(score), "{tune}");

    // Metrics: a full scrape, the cache's conservation law, a monotonic
    // request counter, the resolve memo answering the third of three
    // identical lines, the engine memo gauges, the reactor's wakeups,
    // replays that build no machine, and machines that recycle arrays.
    let scrape1 = d.ask(&["metrics"]);
    let total = |names: &[&str]| -> f64 {
        let series = |n| metric(&scrape1, &format!("paxsim_serve_{n}_total")).unwrap_or(0.0);
        names.iter().map(series).sum()
    };
    let booked = total(&["cache_mem_hits", "cache_disk_hits", "cache_misses"]);
    let asked = total(&["simulate_requests", "baseline_fetches"]);
    assert!(
        booked > 0.0 && booked == asked,
        "{booked} != {asked}: {scrape1}"
    );
    let cg_cmp = ["simulate", "--kernel", "cg", "--config", "CMP"];
    for _ in 0..3 {
        d.ask(&cg_cmp);
    }
    let scrape2 = d.ask(&["metrics"]);
    let series = scrape2.lines().filter(|l| !l.starts_with('#')).count();
    assert!(series >= 20, "metrics scrape too thin: {scrape2}");
    let requests = |s: &str| metric(s, "paxsim_serve_requests_total").unwrap();
    assert!(requests(&scrape2) > requests(&scrape1));
    let memo_hits = |s: &str| metric(s, "paxsim_serve_resolve_memo_hits_total").unwrap_or(0.0);
    assert!(memo_hits(&scrape2) > memo_hits(&scrape1), "{scrape2}");
    for gauge in [
        "paxsim_machine_memo_edges",
        "paxsim_machine_memo_bytes",
        "paxsim_serve_reactor_wakeups_total",
    ] {
        assert!(metric(&scrape2, gauge).unwrap_or(0.0) > 0.0, "{gauge}");
    }
    d.ask(&[&cg_cmp[..], &["--trials", "2", "--jitter", "1777"]].concat());
    let scrape3 = d.ask(&["metrics"]);
    let runs = metric(&scrape3, "paxsim_machine_sim_runs_total").unwrap();
    let built = metric(&scrape3, "paxsim_machine_sim_machines_built_total").unwrap();
    assert!(
        2.0 <= built && built < runs,
        "{built} machines over {runs} runs"
    );
    // A machine after the first takes its cache arrays from the last one.
    let recycled = metric(&scrape3, "paxsim_machine_sim_arrays_recycled_total").unwrap_or(0.0);
    assert!(
        recycled > 0.0,
        "{recycled} arrays recycled by {built} machines"
    );

    d.drain();
}

#[test]
fn the_faulted_daemon_degrades_typed_and_resumes_its_tune() {
    let clean = Daemon::start(&tmp("faulted_reference"), "");
    let clean_tune = clean.ask(TUNE);
    clean.drain();

    // The first worker job panics and is retried, the first journal
    // append fails (the put degrades to memory), and the tune's second
    // evaluation aborts the search after its first cell is cached.
    let plan = "serve-worker-panic:1:1,journal-fail:1,tune-abort:2:1";
    let d = Daemon::start(&tmp("faulted"), plan);
    let miss = d.ask(EP_CMP);
    assert_eq!(
        d.ask(EP_CMP),
        miss,
        "hit under faults differs from the miss"
    );
    let health = d.json(&["health"]);
    assert_eq!(health["status"].as_str(), Some("ready"));
    assert_eq!(health["degraded"]["put_failures"].as_u64(), Some(1));
    let (code, out, _) = cli(&d.sock, TUNE);
    assert_eq!(code, Some(1), "the aborted tune must exit 1: {out}");
    assert_eq!(parse(&out)["error"].as_str(), Some("panic"), "{out}");
    assert_eq!(d.ask(TUNE), clean_tune, "resumed tune differs");
    assert_eq!(d.json(&["stats"])["tune"]["resumes"].as_u64(), Some(1));
    d.drain();
}

#[test]
fn a_malformed_fault_plan_stops_the_daemon_with_exit_2() {
    let mut d = Daemon::spawn(&tmp("bad_plan"), "explode:now");
    assert_eq!(d.line(), None, "paxsim-serve ran under a malformed plan");
    let mut err = String::new();
    d.child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    assert_eq!(d.child.wait().unwrap().code(), Some(2), "{err}");
    assert!(err.contains("explode:now"), "{err}");
}

#[test]
fn a_refused_connection_exits_2_typed() {
    let (code, out, err) = cli(
        &tmp("refused").join("none.sock"),
        &["--retries", "0", "stats"],
    );
    assert_eq!(code, Some(2), "{out} {err}");
    assert!(err.contains("connect failed"), "{err}");
}
