//! Socket front end: a readiness-driven reactor per listener feeding a
//! fixed pool of compute workers.
//!
//! The PR-4 server spawned one detached thread per connection — simple,
//! but the thread count tracked the *connection* count (10k idle
//! dashboards = 10k blocked threads), and drain could only infer handler
//! completion from a request counter because the handles were thrown
//! away. The front end is now a **reactor**: each listener gets one
//! thread that owns every connection accepted from it, with
//! per-connection read buffers, [`FrameBuffer`](crate::frame) reassembly,
//! and per-connection write queues. Complete frames are dispatched to a
//! fixed **worker pool** (sized by [`ServeConfig::effective_workers`]
//! (crate::service::ServeConfig) — deliberately larger than the admission
//! gate so cache hits keep flowing while every gate slot is occupied by a
//! blocked batch leader); workers run
//! [`Service::handle_line`](crate::service::Service) and push the reply
//! to a completion queue that wakes the owning reactor.
//!
//! **Readiness wait.** The reactor waits for events, never for time: each
//! pass blocks in one `poll(2)` call over its listener, every open
//! connection (`POLLIN` while the client may still send, `POLLOUT` only
//! while reply bytes are queued) and the read end of a wake pipe, with no
//! timeout. Request bytes wake it through their socket; a completion
//! wakes it through the pipe, which [`Completions::push`] writes only
//! when the queue goes from empty to non-empty; [`Server::drain`] and
//! [`Server::shutdown`] write it too. Nothing else does, so an idle
//! daemon makes no system calls at all. The fd set is rebuilt from the
//! connection table on every wait — there is no registration to keep in
//! step with slot reuse or write interest — and only descriptors `poll`
//! reported are read or written. A wake cannot be lost: the reactor
//! empties the pipe *before* it takes the queue, so a push either finds
//! the queue non-empty (the reactor has yet to take it) or writes the
//! pipe before the reactor can block again. The one timed wait is the
//! back-off after a failed `accept` (`EMFILE` and friends), which leaves
//! the listener out of the next fd set so a level-triggered `poll` does
//! not spin on a backlog nobody can accept.
//!
//! **Inline hit fast path.** Before dispatching a frame, the reactor
//! tries [`Service::try_hit`](crate::service::Service::try_hit): a
//! `simulate` request whose result is already cached is answered on the
//! reactor thread itself, skipping the pool round trip (two thread
//! wakes per request: 4 µs each on a rested host, 30–45 µs after load).
//! The trade is deliberate: hit service time (under 10 µs — a hash, a
//! probe and a copy of the stored reply line) briefly occupies the I/O
//! thread, capping per-reactor hit throughput at one core's worth — but the reactor already serializes
//! all of its connections' socket I/O, so the ceiling was one core
//! regardless, and the saved switches dominate. An in-order hit with no
//! reply queued ahead of it and no request buffered behind it is written
//! to the socket straight from the reply `String`. Misses, `stats`,
//! and malformed frames take the pool as before.
//!
//! Thread count is now `reactors (≤2) + workers (fixed)`, independent of
//! connections — and every one of those threads is tracked and joined at
//! shutdown, making "all handlers finished" a structural guarantee
//! instead of an inference.
//!
//! **Ordering.** A connection may pipeline many requests; replies must
//! come back in request order even though workers finish out of order.
//! Each frame gets a per-connection sequence number; completed replies
//! park in a `BTreeMap` until every earlier sequence has been released to
//! the write queue. (Pipelined requests still *dispatch* immediately —
//! that concurrency is what feeds the batcher.)
//!
//! **Stale completions.** Connection slots are reused, so a completion
//! for a connection that died mid-compute could otherwise be delivered to
//! an unrelated client. Every slot carries a generation counter; a
//! completion whose `(slot, generation)` no longer matches is discarded.
//!
//! ```text
//! Running ──drain()──▶ Draining ──(in-flight = 0, buffers empty)──▶ Stopped
//! ```
//!
//! * **Running** — listeners accept; every request line is served.
//! * **Draining** — listeners are *closed* (new connects are refused at
//!   the socket, not silently parked in a backlog); established
//!   connections keep their replies coming but cache misses answer
//!   `{"error":"draining"}`; dispatched work runs to completion and its
//!   replies are flushed.
//! * **Stopped** — [`Server::shutdown`] has observed zero in-flight jobs,
//!   zero admitted computations and zero buffered reply bytes, then
//!   joined every reactor and worker thread.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paxsim_core::faultinject::Faults;
use paxsim_obs::{LazyCounter, LazyHistogram};

use crate::frame::FrameBuffer;
use crate::protocol;
use crate::service::Service;

/// Read-chunk size per `read` syscall.
const READ_CHUNK: usize = 64 * 1024;

/// `poll` timeout that blocks until an event.
const BLOCK: i32 = -1;

/// The wait after a failed `accept`, the reactor's only timed wait.
const ACCEPT_BACKOFF_MS: i32 = 10;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// poll(2), declared directly so the daemon needs no external crate (the
// same precedent as signal(2) in main.rs).
// ---------------------------------------------------------------------------

/// `struct pollfd` of `<poll.h>`. A negative `fd` is an entry `poll` skips.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Block until a descriptor in `fds` is ready or `timeout_ms` passes
/// ([`BLOCK`]: no timeout); returns how many are ready. `EINTR`, like any
/// other failure, is a spurious wake: nothing is ready and the caller's
/// pass finds nothing to do.
fn poll_ready(fds: &mut [PollFd], timeout_ms: i32) -> usize {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int) -> i32;
    }
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s and `nfds` is its length; `poll` writes only the `revents`
    // of those entries and keeps no pointer past its return.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    usize::try_from(n).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Worker pool and completion queue.
// ---------------------------------------------------------------------------

/// `(slot, generation)` connection identity; generation protects reused
/// slots from stale completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConnId {
    slot: usize,
    generation: u64,
}

struct Job {
    conn: ConnId,
    seq: u64,
    line: String,
    /// The completion queue of the reactor that owns the connection.
    completions: Arc<Completions>,
}

struct Completion {
    conn: ConnId,
    seq: u64,
    reply: String,
}

/// Per-reactor completion queue and wake pipe: everything another thread
/// may do to a blocked reactor.
struct Completions {
    queue: Mutex<Vec<Completion>>,
    /// The wake pipe: anyone writes `wake_tx`, the reactor polls `wake_rx`.
    wake_tx: UnixStream,
    wake_rx: UnixStream,
    /// Connections still owed bytes (pending jobs, parked replies, or
    /// unflushed output), as of the last pass.
    unsettled: AtomicUsize,
}

impl Completions {
    fn new() -> std::io::Result<Arc<Completions>> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            wake_tx,
            wake_rx,
            unsettled: AtomicUsize::new(0),
        }))
    }

    /// Queue a reply; wake the reactor only if the queue was empty (a
    /// non-empty queue already has a wake byte on its way or unread).
    fn push(&self, c: Completion) {
        let mut queue = lock(&self.queue);
        queue.push(c);
        if queue.len() == 1 {
            drop(queue);
            self.wake();
        }
    }

    /// Make the reactor's `poll` return. A full pipe already guarantees
    /// that, so a failed write is not an error.
    fn wake(&self) {
        static WAKE_WRITES: LazyCounter = LazyCounter::new("serve.reactor.wake_writes");
        WAKE_WRITES.inc();
        let _ = (&self.wake_tx).write(&[1]);
    }
}

/// The fixed compute-worker pool. Jobs are request lines; the pool is
/// shared by every reactor.
struct WorkerPool {
    jobs: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
}

impl WorkerPool {
    fn new() -> Arc<WorkerPool> {
        Arc::new(WorkerPool {
            jobs: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        })
    }

    fn submit(&self, job: Job) {
        lock(&self.jobs).push_back(job);
        self.cv.notify_one();
    }

    /// Stop the pool: discard queued jobs (only non-empty when a drain
    /// grace period expired) and wake every worker to exit.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        lock(&self.jobs).clear();
        self.cv.notify_all();
    }

    fn worker_loop(&self, service: &Service, active: &AtomicUsize) {
        loop {
            let job = {
                let mut jobs = lock(&self.jobs);
                loop {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(job) = jobs.pop_front() {
                        service.queued_jobs.fetch_sub(1, Ordering::SeqCst);
                        break job;
                    }
                    jobs = self.cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
                }
            };
            // The worker is the last line of panic isolation: a panic
            // escaping `handle_line` (or injected by `Faults::worker_job`)
            // must not kill the thread — that would strand the job's
            // reply, leak the `active` count, and hang drain forever.
            // One retry (panics here are transient by construction: the
            // compute path below already did its own retries), then a
            // typed reply.
            let reply = match run_job(service, &job.line) {
                Ok(r) => r,
                Err(_) => match run_job(service, &job.line) {
                    Ok(r) => r,
                    Err(payload) => protocol::render_error(
                        "panic",
                        &format!("worker panicked twice handling this request: {payload}"),
                    ),
                },
            };
            // Push before decrementing `active`, so `active == 0` implies
            // every finished reply is already visible to its reactor.
            let (conn, seq, completions) = (job.conn, job.seq, job.completions);
            completions.push(Completion { conn, seq, reply });
            active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Run one request line inside the worker's `catch_unwind` boundary.
/// The daemon's `serve-worker-panic` fires here, so the boundary (and its
/// retry) is exercised deterministically in tests.
fn run_job(service: &Service, line: &str) -> Result<String, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        service.config().faults.worker_job();
        service.handle_line(line)
    }))
    .map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())
    })
}

// ---------------------------------------------------------------------------
// Non-blocking listener/stream abstraction over TCP and Unix sockets.
// ---------------------------------------------------------------------------

trait NbListener: AsRawFd + Send + 'static {
    type Stream: Read + Write + AsRawFd + Send + 'static;
    fn accept_nb(&self) -> std::io::Result<Self::Stream>;
}

impl NbListener for TcpListener {
    type Stream = TcpStream;
    fn accept_nb(&self) -> std::io::Result<TcpStream> {
        let (s, _) = self.accept()?;
        s.set_nonblocking(true)?;
        // Reply lines are written as soon as they are released; batching
        // to the wire is done by our own write queue, not Nagle.
        let _ = s.set_nodelay(true);
        Ok(s)
    }
}

impl NbListener for UnixListener {
    type Stream = UnixStream;
    fn accept_nb(&self) -> std::io::Result<UnixStream> {
        let (s, _) = self.accept()?;
        s.set_nonblocking(true)?;
        Ok(s)
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
    )
}

/// After `accept` failed with `e`: does the listener sit out the next
/// wait, which then lasts [`ACCEPT_BACKOFF_MS`]? An empty backlog is the
/// normal end of an accept pass. Anything else (`EMFILE`, `ENFILE`,
/// `ECONNABORTED`, …) may leave the listener readable, and a
/// level-triggered `poll` would then return at once, forever.
fn accept_backs_off(e: &std::io::Error) -> bool {
    !would_block(e)
}

// ---------------------------------------------------------------------------
// Per-connection state.
// ---------------------------------------------------------------------------

struct Conn<S> {
    stream: S,
    generation: u64,
    frames: FrameBuffer,
    /// Bytes queued to the client, drained as the socket accepts them.
    out: VecDeque<u8>,
    /// Next sequence number to assign to an incoming frame.
    next_seq: u64,
    /// Next sequence number to release to `out` (FIFO reply order).
    next_release: u64,
    /// Out-of-order completions parked until their turn.
    ready: BTreeMap<u64, String>,
    /// Frames dispatched to the pool, not yet completed.
    pending_jobs: usize,
    /// Client closed its half (or erred); close once everything owed has
    /// been written.
    closing: bool,
    /// Socket write failed; drop without flushing.
    dead: bool,
    /// The daemon's plan, for `serve-partial-write`.
    faults: Faults,
}

/// One `write` of `bytes`, returning how many the socket took (0 when it
/// is full) and setting `dead` when it failed.
fn write_some(stream: &mut impl Write, dead: &mut bool, faults: &Faults, bytes: &[u8]) -> usize {
    // Chaos hook: a `serve-partial-write` plan caps this write at one
    // byte, exercising the partial-write bookkeeping a saturated socket
    // produces (the rest stays queued and goes out in later writes).
    let cap = faults.write_cap().unwrap_or(bytes.len()).min(bytes.len());
    match stream.write(&bytes[..cap]) {
        Ok(0) => *dead = true,
        Ok(n) => return n,
        Err(ref e) if would_block(e) => {}
        Err(_) => *dead = true,
    }
    0
}

impl<S: Write> Conn<S> {
    fn new(stream: S, generation: u64, faults: Faults) -> Conn<S> {
        Conn {
            stream,
            generation,
            frames: FrameBuffer::default(),
            out: VecDeque::new(),
            next_seq: 0,
            next_release: 0,
            ready: BTreeMap::new(),
            pending_jobs: 0,
            closing: false,
            dead: false,
            faults,
        }
    }

    /// Replies owed or buffered — the connection cannot be dropped (and
    /// the server cannot claim "drained") while this is nonzero.
    fn unsettled(&self) -> usize {
        self.pending_jobs + self.ready.len() + usize::from(!self.out.is_empty())
    }

    /// What the reactor waits for on this socket: request bytes while the
    /// client may still send, room to write only while bytes are queued.
    /// Zero makes the socket's entry one `poll` skips (it reports a hung-up
    /// peer whether asked or not, and would spin on it). A dead
    /// connection is retired by the pass that found it so, before any wait.
    fn interest(&self) -> i16 {
        let read = if self.closing { 0 } else { POLLIN };
        let write = if self.out.is_empty() { 0 } else { POLLOUT };
        read | write
    }

    /// A reply rendered on the reactor thread. Out of order it parks like
    /// a completion; in order it skips the map, and with nothing queued
    /// ahead of it and no request buffered behind it (a pipelining client
    /// gets one write for the whole burst instead) it goes to the socket
    /// straight from `reply`.
    fn answer(&mut self, seq: u64, mut reply: String) {
        if seq != self.next_release {
            self.ready.insert(seq, reply);
            return;
        }
        self.next_release += 1;
        reply.push('\n');
        let mut sent = 0;
        if self.out.is_empty() && self.frames.pending() == 0 {
            sent = write_some(
                &mut self.stream,
                &mut self.dead,
                &self.faults,
                reply.as_bytes(),
            );
        }
        self.out.extend(&reply.as_bytes()[sent..]);
    }

    /// Move every parked reply whose turn has come to `out`; true when
    /// there was one.
    fn release_ready(&mut self) -> bool {
        let before = self.next_release;
        while let Some(reply) = self.ready.remove(&self.next_release) {
            self.out.extend(reply.as_bytes());
            self.out.push_back(b'\n');
            self.next_release += 1;
        }
        self.next_release != before
    }

    /// Write queued bytes until the queue is empty or the socket full.
    fn flush(&mut self) {
        while !self.out.is_empty() && !self.dead {
            let (front, _) = self.out.as_slices();
            match write_some(&mut self.stream, &mut self.dead, &self.faults, front) {
                0 => break,
                n => drop(self.out.drain(..n)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

/// A running daemon front end.
pub struct Server {
    service: Arc<Service>,
    drain: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    /// Request lines dispatched to the pool and not yet completed.
    active: Arc<AtomicUsize>,
    /// One per reactor: its completion queue, wake pipe and unsettled count.
    wakers: Vec<Arc<Completions>>,
    pool: Arc<WorkerPool>,
    reactors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Bind the requested listeners and start the reactor(s) and worker
    /// pool. At least one of `tcp` (an address like `127.0.0.1:7077`;
    /// port 0 picks a free one) or `unix` (a socket path, replaced if it
    /// already exists) must be given.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures, or neither listener requested.
    pub fn start(
        service: Arc<Service>,
        tcp: Option<&str>,
        unix: Option<&Path>,
    ) -> std::io::Result<Server> {
        if tcp.is_none() && unix.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "need a TCP address or a Unix socket path to listen on",
            ));
        }
        let drain = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new();
        let mut wakers = Vec::new();
        let mut reactors = Vec::new();
        let mut reactor = || -> std::io::Result<Reactor> {
            let completions = Completions::new()?;
            wakers.push(completions.clone());
            Ok(Reactor {
                service: service.clone(),
                drain: drain.clone(),
                stop: stop.clone(),
                active: active.clone(),
                pool: pool.clone(),
                completions,
            })
        };
        let mut tcp_addr = None;
        if let Some(addr) = tcp {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let reactor = reactor()?;
            reactors.push(std::thread::spawn(move || reactor.run(listener)));
        }
        let mut unix_path = None;
        if let Some(path) = unix {
            // A stale socket file from a previous run refuses the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.to_path_buf());
            let reactor = reactor()?;
            reactors.push(std::thread::spawn(move || reactor.run(listener)));
        }
        let workers = (0..service.config().effective_workers())
            .map(|_| {
                let (pool, service, active) = (pool.clone(), service.clone(), active.clone());
                std::thread::spawn(move || pool.worker_loop(&service, &active))
            })
            .collect();
        Ok(Server {
            service,
            drain,
            stop,
            active,
            wakers,
            pool,
            reactors,
            workers,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (with the actual port when 0 was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Enter the Draining state: close the listeners (new connects are
    /// refused), refuse new computations, let dispatched work finish.
    pub fn drain(&self) {
        self.service.set_draining();
        self.drain.store(true, Ordering::SeqCst);
        self.wakers.iter().for_each(|w| w.wake());
    }

    /// Request lines dispatched and not yet completed.
    pub fn active_requests(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Drain and wait (up to `grace`) for every dispatched request, every
    /// admitted computation, and every buffered reply byte to clear, then
    /// stop and **join** every reactor and worker thread and remove the
    /// Unix socket file. Returns `true` when everything drained inside
    /// the grace period — at which point each in-flight client has had
    /// its reply flushed to the socket, proven by joined handlers rather
    /// than inferred from counters.
    pub fn shutdown(self, grace: Duration) -> bool {
        self.drain();
        let deadline = Instant::now() + grace;
        let drained = loop {
            let settled = |w: &Arc<Completions>| w.unsettled.load(Ordering::SeqCst) == 0;
            if self.active.load(Ordering::SeqCst) == 0
                && self.service.busy() == 0
                && self.wakers.iter().all(settled)
            {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        self.stop.store(true, Ordering::SeqCst);
        self.wakers.iter().for_each(|w| w.wake());
        self.pool.stop();
        self.service.queued_jobs.store(0, Ordering::SeqCst); // stop() discarded them
        for h in self.reactors {
            let _ = h.join();
        }
        for h in self.workers {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        drained
    }
}

// ---------------------------------------------------------------------------
// The reactor loop.
// ---------------------------------------------------------------------------

/// One reactor: owns its listener and every connection accepted from it.
struct Reactor {
    service: Arc<Service>,
    drain: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    pool: Arc<WorkerPool>,
    completions: Arc<Completions>,
}

impl Reactor {
    fn run<L: NbListener>(self, listener: L) {
        static WAKEUPS: LazyCounter = LazyCounter::new("serve.reactor.wakeups");
        static ACCEPT_ERRORS: LazyCounter = LazyCounter::new("serve.reactor.accept_errors");
        static READY_PER_WAKE: LazyHistogram = LazyHistogram::new("serve.reactor.ready_per_wake");
        let mut listener = Some(listener);
        let mut conns: Vec<Option<Conn<L::Stream>>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut generation: u64 = 0;
        let mut buf = vec![0u8; READ_CHUNK];
        // The fd set of one wait: the wake pipe, the listener, then one
        // entry per connection slot. `poll` skips a negative fd: the
        // listener once drained and for one wait after a failed accept, an
        // empty slot, a connection with nothing to wait for.
        let mut fds: Vec<PollFd> = Vec::new();
        let mut accept_backoff = false;
        loop {
            let polled = listener.as_ref().filter(|_| !accept_backoff);
            fds.clear();
            let mut wait_for = |fd, events| {
                fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                })
            };
            wait_for(self.completions.wake_rx.as_raw_fd(), POLLIN);
            wait_for(polled.map_or(-1, L::as_raw_fd), POLLIN);
            for conn in &conns {
                match conn.as_ref().filter(|c| c.interest() != 0) {
                    Some(c) => wait_for(c.stream.as_raw_fd(), c.interest()),
                    None => wait_for(-1, 0),
                }
            }
            let timeout_ms = if accept_backoff {
                ACCEPT_BACKOFF_MS
            } else {
                BLOCK
            };
            let ready = poll_ready(&mut fds, timeout_ms);
            accept_backoff = false;
            WAKEUPS.inc();
            // A count, not a time: 1e-6 puts n in the bucket of n µs.
            READY_PER_WAKE.observe(ready as f64 * 1e-6);

            // Empty the wake pipe *before* taking the queue: a push that
            // comes after the take then finds the queue empty and writes
            // a byte this read has not consumed.
            if fds[0].revents != 0 {
                let _ = (&self.completions.wake_rx).read(&mut buf);
            }
            for c in std::mem::take(&mut *lock(&self.completions.queue)) {
                let Some(conn) = conns.get_mut(c.conn.slot).and_then(Option::as_mut) else {
                    continue; // connection died mid-compute
                };
                if conn.generation != c.conn.generation {
                    continue; // slot reused: stale completion
                }
                conn.pending_jobs -= 1;
                conn.ready.insert(c.seq, c.reply);
            }

            // Per-connection I/O: sockets `poll` reported are read and
            // written; the rest only release what completions delivered.
            let mut owed = 0usize;
            for (slot, entry) in conns.iter_mut().enumerate() {
                let Some(conn) = entry.as_mut() else {
                    continue;
                };
                let reported = fds[2 + slot].revents != 0;
                if reported && !conn.closing {
                    self.read_requests(conn, slot, &mut buf);
                }
                if conn.release_ready() || reported {
                    conn.flush();
                }

                // Retire connections that owe nothing (or can't be paid).
                if conn.dead || (conn.closing && conn.unsettled() == 0) {
                    *entry = None;
                    free.push(slot);
                    self.service.open_connections.fetch_sub(1, Ordering::SeqCst);
                } else {
                    owed += usize::from(conn.unsettled() > 0);
                }
            }

            // Drain closes the listener: connects made after this point are
            // refused by the OS instead of parking in a backlog nobody will
            // ever accept. New connections are first read after the next
            // wait, which their request bytes end at once.
            if self.drain.load(Ordering::SeqCst) {
                listener = None;
            } else if let Some(l) = listener.as_ref().filter(|_| fds[1].revents != 0) {
                loop {
                    match l.accept_nb() {
                        Ok(stream) => {
                            generation += 1;
                            self.service.open_connections.fetch_add(1, Ordering::SeqCst);
                            let faults = self.service.config().faults.clone();
                            let conn = Conn::new(stream, generation, faults);
                            match free.pop() {
                                Some(slot) => conns[slot] = Some(conn),
                                None => conns.push(Some(conn)),
                            }
                        }
                        Err(e) => {
                            accept_backoff = accept_backs_off(&e);
                            if accept_backoff {
                                ACCEPT_ERRORS.inc();
                            }
                            break;
                        }
                    }
                }
            }
            self.completions.unsettled.store(owed, Ordering::SeqCst);

            if self.stop.load(Ordering::SeqCst) {
                // Final flush attempt happened above; anything still owed
                // missed the grace period. What is still open closes here.
                let open = conns.iter().flatten().count();
                self.service
                    .open_connections
                    .fetch_sub(open, Ordering::SeqCst);
                return;
            }
        }
    }

    /// Read `conn` until the socket runs dry, answering or dispatching
    /// every complete frame (pipelined frames dispatch immediately and
    /// concurrently — that is what feeds the batcher).
    fn read_requests<S: Read + Write>(&self, conn: &mut Conn<S>, slot: usize, buf: &mut [u8]) {
        loop {
            let n = match conn.stream.read(buf) {
                Ok(0) => {
                    conn.closing = true;
                    return;
                }
                Ok(n) => n,
                Err(ref e) if would_block(e) => return,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            };
            conn.frames.push(&buf[..n]);
            while let Some(frame) = conn.frames.next_frame() {
                let seq = conn.next_seq;
                conn.next_seq += 1;
                // Chaos hook: a `serve-conn-kill` plan resets this
                // connection right after it delivered a frame — the
                // request is received but its reply never leaves, exactly
                // the torn state a mid-request network partition produces.
                // The client sees EOF and must retry elsewhere.
                if self.service.config().faults.conn_kill() {
                    conn.dead = true;
                    return;
                }
                let line = match frame {
                    Ok(line) => line,
                    Err(e) => {
                        // Typed, in-order, connection keeps serving.
                        conn.answer(seq, protocol::render_error("bad-request", &e.detail()));
                        continue;
                    }
                };
                // Inline fast path: a pure cache hit is answered on this
                // thread, skipping the pool round trip. Misses, stats, and
                // bad requests return `None` and dispatch. A panic here
                // must not kill the reactor: treat it as a miss and let
                // the worker's own isolation boundary absorb it.
                let inline = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.service.try_hit(&line)
                }))
                .unwrap_or(None);
                if let Some(reply) = inline {
                    conn.answer(seq, reply);
                    continue;
                }
                conn.pending_jobs += 1;
                self.active.fetch_add(1, Ordering::SeqCst);
                self.service.queued_jobs.fetch_add(1, Ordering::SeqCst);
                self.pool.submit(Job {
                    conn: ConnId {
                        slot,
                        generation: conn.generation,
                    },
                    seq,
                    line,
                    completions: self.completions.clone(),
                });
            }
            // A short read emptied the socket; `poll` reports whatever
            // arrives after it.
            if n < buf.len() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_failed_accept_backs_the_listener_off() {
        use std::io::{Error, ErrorKind};
        // An empty backlog (or a signal) ends the accept pass: keep
        // polling the listener, block until the next event.
        for kind in [ErrorKind::WouldBlock, ErrorKind::Interrupted] {
            assert!(!accept_backs_off(&Error::from(kind)));
        }
        // EMFILE, ENFILE, ECONNABORTED: the listener may still be
        // readable, so it sits out one short timed wait.
        for errno in [24, 23, 103] {
            assert!(accept_backs_off(&Error::from_raw_os_error(errno)));
        }
    }

    #[test]
    fn poll_reports_the_wake_pipe_and_skips_negative_fds() {
        let completions = Completions::new().unwrap();
        let mut fds = [-1, completions.wake_rx.as_raw_fd()].map(|fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        assert_eq!(poll_ready(&mut fds, 0), 0, "nothing written yet");
        completions.wake();
        assert_eq!(poll_ready(&mut fds, BLOCK), 1);
        assert_eq!((fds[0].revents, fds[1].revents), (0, POLLIN));
    }

    #[test]
    fn only_the_first_push_writes_the_wake_pipe() {
        let completions = Completions::new().unwrap();
        let push = || {
            completions.push(Completion {
                conn: ConnId {
                    slot: 0,
                    generation: 1,
                },
                seq: 0,
                reply: String::new(),
            })
        };
        let mut buf = [0u8; 8];
        let mut woken = || (&completions.wake_rx).read(&mut buf).unwrap_or(0);
        push();
        push();
        assert_eq!(woken(), 1, "empty -> non-empty writes one byte");
        assert_eq!(woken(), 0, "the second push found the queue non-empty");
        assert_eq!(lock(&completions.queue).drain(..).count(), 2);
        push();
        assert_eq!(woken(), 1, "taken, so the next push wakes again");
    }
}
