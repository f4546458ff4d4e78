//! The server: the readiness-driven I/O loop and the persistent worker
//! pool.
//!
//! One [`Server::start`] call binds a [`Listener`] (TCP and/or a Unix
//! socket), spawns [`ServeConfig::workers`] persistent worker threads
//! sharing one [`fastsim_core::BatchDriver`] worth of master p-action
//! caches, plus **one I/O thread** that owns every client socket through
//! an epoll instance (`crate::sys`), and returns a [`ServerHandle`].
//! Connection count is decoupled from thread count: tens of thousands of
//! idle connections cost the loop nothing but a table entry, where the
//! previous thread-per-connection design spent an OS thread (and an
//! `IDLE_POLL` sleep loop) per client.
//!
//! ## The event loop
//!
//! All sockets are nonblocking. The loop sleeps in `epoll_wait` with no
//! timeout; every wakeup source is a registered fd:
//!
//! * the listeners — accept until `EAGAIN`, register each connection;
//! * the client sockets — read until `EAGAIN`, assemble request lines
//!   (`crate::conn`), handle each; queue and flush responses, re-arming
//!   `EPOLLOUT` while backpressure holds bytes back;
//! * the wake pipe — workers push finished deferred responses
//!   (`crate::state::Completion`) and wake the loop to deliver them.
//!
//! Requests that used to block a connection thread (`submit` with
//! `wait`, `drain`, `shutdown`) now register a `crate::state::Waiter`;
//! the connection stays registered, later pipelined requests park behind
//! the deferred response so responses stay FIFO per connection.
//!
//! ## Job lifecycle
//!
//! A `submit` expands to kernel × replica jobs, all admitted atomically
//! (the whole submission is rejected if the queue cannot hold it —
//! backpressure). A worker pops a job, clones its group's current frozen
//! snapshot, and runs it **outside** the scheduler lock inside
//! `catch_unwind`; deadlines use the engine's transparent chunked
//! execution ([`fastsim_core::run_single`]). On success the delta is
//! merged into the group's master and, every
//! [`ServeConfig::refreeze_every`] merges, the master is re-frozen so
//! later jobs start warmer (with [`ServeConfig::snapshot_dir`] set, a
//! fresh snapshot that differs from the group's last one is also
//! persisted to the durable store once the scheduler lock is released,
//! so the warmth survives a restart). On
//! panic the job is parked with exponential
//! backoff and retried, up to [`ServeConfig::max_attempts`] attempts, then
//! quarantined — failed attempts merge nothing, so they cannot poison the
//! shared caches. Idle workers sleep on a condvar signaled at every
//! enqueue (no polling): job pickup latency is bounded by scheduling, not
//! by a poll interval.
//!
//! `drain` stops admissions and answers once every admitted job settles;
//! `shutdown` drains, stops the workers and the loop, and the handle's
//! [`ServerHandle::wait`] returns the final metrics dump.
//!
//! ## The fault seam
//!
//! Fault injection is not part of the server. [`Server::start`] runs with
//! no faults; a test harness passes a [`Faults`] implementation to
//! [`Server::start_with_faults`], and the server consults it at the two
//! boundaries where real failures enter: as a framed response is about to
//! be queued ([`Faults::response`]) and as a job attempt is about to run
//! ([`Faults::attempt_panics`]). The seeded implementation lives in
//! `fastsim_fuzz::chaos`.

use crate::client::Stream;
use crate::conn::{ConnBuf, Ingest};
use crate::http::HttpParser;
use crate::journal::{JournalRecord, SubmitRecord};
use crate::json::Json;
use crate::protocol::{ok_response, Incoming, Request, ServeError, SubmitSpec};
use crate::state::{
    Completion, Core, GroupCtl, JobRecord, JobStatus, ServerState, WaitKind, Waiter,
};
use crate::sys::{
    set_nonblocking, wake_pipe, Epoll, EpollEvent, WakeReader, EPOLLERR, EPOLLHUP, EPOLLIN,
    EPOLLOUT, EPOLLRDHUP,
};
use fastsim_core::{
    run_single, BatchJob, HierarchyConfig, JobFailure, JobReport, WarmCacheSnapshot,
};
use fastsim_workloads::Manifest;
use std::collections::HashMap;
use std::io::Read;
use std::net::TcpListener;
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. `Default` is sized for tests and smoke runs;
/// `fastsim_served` exposes each as a flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Persistent worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Admission-control bound on queued + parked jobs.
    pub queue_capacity: usize,
    /// Re-freeze a group's master snapshot after this many merged deltas
    /// (clamped to ≥ 1). Smaller: later jobs start warmer, more freeze
    /// work. Larger: cheaper, staler snapshots.
    pub refreeze_every: usize,
    /// Default per-job deadline for submissions without `timeout_ms`
    /// (`None`: run to completion).
    pub default_timeout: Option<Duration>,
    /// Attempts (1 + retries) before a panicking job is quarantined.
    pub max_attempts: u32,
    /// Backoff before retry k is `backoff_base · 2^(k−1)`.
    pub backoff_base: Duration,
    /// Open-connection cap: accepts beyond this are immediately closed
    /// (never left in the backlog, which would busy-wake the loop).
    pub max_conns: usize,
    /// Root of the durable snapshot store (`None`: warmth is
    /// process-local, exactly the pre-store behavior). When set, the
    /// server adopts the store's snapshots at boot and persists every
    /// re-freeze, so a restart serves its first jobs warm.
    pub snapshot_dir: Option<PathBuf>,
    /// Root of the `fastsim-journal/v1` write-ahead job journal (`None`:
    /// the queue is process-local and a crash loses it). When set, every
    /// admission is journaled and fsynced before it is acknowledged, and
    /// a restart replays unfinished jobs in original admission order —
    /// see [`crate::journal`].
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 256,
            refreeze_every: 4,
            default_timeout: Some(Duration::from_secs(120)),
            max_attempts: 3,
            backoff_base: Duration::from_millis(20),
            max_conns: 16_384,
            snapshot_dir: None,
            journal_dir: None,
        }
    }
}

/// Store generations kept per group after each persist; older ones are
/// pruned (the newest generation is never deleted, whatever this says).
const SNAPSHOT_KEEP_GENERATIONS: usize = 4;

/// What happens to one framed response at the fault seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseFault {
    /// Queue the whole response (the only outcome without a [`Faults`]).
    Deliver,
    /// Close the connection without writing anything.
    Drop,
    /// Queue the first half of the response, then close.
    Truncate,
}

/// The fault seam: where a test harness injects failures into an
/// otherwise unmodified server (see the [module docs](self)). Faults only
/// ever reach transport and worker attempts — never admitted state or the
/// shared caches.
pub trait Faults: Send + Sync {
    /// Called as a framed response is about to be queued. Responses that
    /// close the connection (`shutdown`, `Connection: close`, framing
    /// violations) always go out and never reach the seam.
    fn response(&self) -> ResponseFault;

    /// Called as a job attempt is about to run; `true` makes the attempt
    /// panic inside the worker (on top of any per-job `chaos_panics`).
    fn attempt_panics(&self) -> bool;
}

/// What the server listens on.
pub enum Listener {
    /// A TCP listener (line-delimited JSON per connection).
    Tcp(TcpListener),
    /// A Unix-domain socket listener (same protocol).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
    /// A TCP listener speaking the HTTP/1.1 gateway (`crate::http`)
    /// instead of the line protocol — same event loop, same ops.
    Http(TcpListener),
}

impl Listener {
    /// Binds a TCP listener; `addr` like `"127.0.0.1:0"` (port 0 picks a
    /// free port — read it back from [`ServerHandle::tcp_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn tcp(addr: &str) -> std::io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds the HTTP/1.1 gateway listener; `addr` as for
    /// [`Listener::tcp`] (read the port back from
    /// [`ServerHandle::http_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn http(addr: &str) -> std::io::Result<Listener> {
        Ok(Listener::Http(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-socket listener at `path`, removing a stale socket
    /// file first. The file is removed again when the server handle is
    /// waited out.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    #[cfg(unix)]
    pub fn unix(path: impl Into<PathBuf>) -> std::io::Result<Listener> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        Ok(Listener::Unix(UnixListener::bind(&path)?, path))
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// send a `shutdown` request (e.g. [`crate::client::Client::shutdown`])
/// and then [`wait`](ServerHandle::wait) it out.
pub struct ServerHandle {
    state: Arc<ServerState>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<std::net::SocketAddr>,
    unix_path: Option<PathBuf>,
    http_addr: Option<std::net::SocketAddr>,
}

impl ServerHandle {
    /// The bound TCP address, when listening on TCP.
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path, when listening on a Unix socket.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        self.unix_path.as_deref()
    }

    /// The bound HTTP gateway address, when listening on HTTP.
    pub fn http_addr(&self) -> Option<std::net::SocketAddr> {
        self.http_addr
    }

    /// Connections open right now (the event loop's gauge).
    pub fn open_connections(&self) -> u64 {
        self.state.metrics.open_connections()
    }

    /// Snapshot-store activity so far as `(loads, rejected)` — right
    /// after [`Server::start`] these are the boot scan's counts, which is
    /// what `fastsim_served` logs at startup. Both zero on a server
    /// without [`ServeConfig::snapshot_dir`].
    pub fn snapshot_stats(&self) -> (u64, u64) {
        (self.state.metrics.snapshot_loads(), self.state.metrics.snapshot_rejections())
    }

    /// Journal activity so far as `(jobs recovered, rejections)` — right
    /// after [`Server::start`] these are the boot replay's counts. Both
    /// zero on a server without [`ServeConfig::journal_dir`].
    pub fn journal_stats(&self) -> (u64, u64) {
        (self.state.metrics.journal_recoveries(), self.state.metrics.journal_rejections())
    }

    /// Stops the server *without* draining — the in-process stand-in for
    /// `kill -9` in crash-recovery tests. Admissions stop, idle workers
    /// exit immediately (a worker mid-job finishes and settles that one
    /// job first — thread murder is not available in safe Rust), queued
    /// jobs stay unfinished, and no shutdown response is sent. With a
    /// journal configured, a later server on the same directory replays
    /// everything that never settled. Returns the final metrics dump so
    /// the test can see how far the first life got.
    pub fn kill(self) -> Json {
        {
            let mut core = self.state.core.lock().unwrap();
            core.draining = true;
            core.stop = true;
        }
        self.state.work.notify_all();
        self.state.waker.wake();
        self.wait()
    }

    /// Blocks until the server stops (a client sent `shutdown`), joins the
    /// I/O and worker threads, removes the Unix socket file, and returns
    /// the final metrics dump ([`crate::metrics::SCHEMA`]).
    pub fn wait(self) -> Json {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        let core = self.state.core.lock().unwrap();
        dump_metrics(&self.state, &core)
    }
}

/// The server entry point. See the [module docs](self).
pub struct Server;

impl Server {
    /// Starts a server on the given listeners (at least one) and returns
    /// its handle immediately.
    pub fn start(cfg: ServeConfig, listeners: Vec<Listener>) -> ServerHandle {
        Server::spawn(cfg, listeners, None)
    }

    /// Like [`Server::start`], with `faults` consulted at the fault seam.
    pub fn start_with_faults(
        cfg: ServeConfig,
        listeners: Vec<Listener>,
        faults: Arc<dyn Faults>,
    ) -> ServerHandle {
        Server::spawn(cfg, listeners, Some(faults))
    }

    fn spawn(
        cfg: ServeConfig,
        listeners: Vec<Listener>,
        faults: Option<Arc<dyn Faults>>,
    ) -> ServerHandle {
        assert!(!listeners.is_empty(), "a server needs at least one listener");
        let (wake_reader, waker) = wake_pipe().expect("wake pipe");
        let state = Arc::new(ServerState::new(cfg, waker, faults));
        let mut threads = Vec::new();
        for w in 0..state.cfg.workers.max(1) {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker"),
            );
        }
        let mut tcp_addr = None;
        let mut unix_path = None;
        let mut http_addr = None;
        let mut tcp = None;
        let mut unix = None;
        let mut http = None;
        for listener in listeners {
            match listener {
                Listener::Tcp(l) => {
                    tcp_addr = l.local_addr().ok();
                    tcp = Some(l);
                }
                #[cfg(unix)]
                Listener::Unix(l, path) => {
                    unix_path = Some(path);
                    unix = Some(l);
                }
                Listener::Http(l) => {
                    http_addr = l.local_addr().ok();
                    http = Some(l);
                }
            }
        }
        {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-io".into())
                    .spawn(move || EventLoop::new(state, wake_reader, tcp, unix, http).run())
                    .expect("spawn event loop"),
            );
        }
        ServerHandle { state, threads, tcp_addr, unix_path, http_addr }
    }
}

/// Epoll token of the wake pipe's read end.
const TOKEN_WAKE: u64 = 0;
/// Epoll token of the TCP listener.
const TOKEN_TCP: u64 = 1;
/// Epoll token of the Unix listener.
const TOKEN_UNIX: u64 = 2;
/// Epoll token of the HTTP gateway listener.
const TOKEN_HTTP: u64 = 3;
/// First token handed to an accepted connection.
const TOKEN_CONN0: u64 = 8;

/// How long a stopping server keeps trying to flush final responses to
/// slow readers before closing them anyway.
const SHUTDOWN_LINGER: Duration = Duration::from_secs(5);

/// One registered connection: its socket, buffers, and readiness
/// bookkeeping.
struct Conn {
    stream: Stream,
    buf: ConnBuf,
    /// Interest set currently registered with epoll.
    interest: u32,
    /// Peer closed its writing half (half-open): no more requests will
    /// arrive, but queued/deferred responses still get delivered.
    eof: bool,
    /// `Some` on gateway connections: the HTTP request parser. `None`
    /// means the line protocol.
    http: Option<HttpParser>,
}

/// What handling one request produces.
enum Outcome {
    /// Answer now.
    Reply(Result<Json, ServeError>),
    /// Answer now and close the connection after the flush (shutdown).
    ReplyClose(Json),
    /// A waiter was registered; the response arrives as a
    /// [`Completion`] later. The connection blocks (FIFO responses).
    Deferred,
}

/// The I/O thread: owns every socket, the epoll set, and the connection
/// table. See the [module docs](self).
struct EventLoop {
    state: Arc<ServerState>,
    epoll: Epoll,
    wake: WakeReader,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    /// The HTTP/1.1 gateway listener (`crate::http`), sharing this loop.
    http: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Shutdown has begun: listeners are gone, remaining output is
    /// flushing, the loop exits when the table empties (or the linger
    /// deadline passes).
    shutdown_at: Option<Instant>,
}

impl EventLoop {
    fn new(
        state: Arc<ServerState>,
        wake: WakeReader,
        tcp: Option<TcpListener>,
        unix: Option<UnixListener>,
        http: Option<TcpListener>,
    ) -> EventLoop {
        let epoll = Epoll::new().expect("epoll_create1");
        epoll.add(wake.fd(), EPOLLIN, TOKEN_WAKE).expect("register wake pipe");
        if let Some(l) = &tcp {
            l.set_nonblocking(true).expect("nonblocking tcp listener");
            epoll.add(l.as_raw_fd(), EPOLLIN, TOKEN_TCP).expect("register tcp listener");
        }
        if let Some(l) = &unix {
            l.set_nonblocking(true).expect("nonblocking unix listener");
            epoll.add(l.as_raw_fd(), EPOLLIN, TOKEN_UNIX).expect("register unix listener");
        }
        if let Some(l) = &http {
            l.set_nonblocking(true).expect("nonblocking http listener");
            epoll.add(l.as_raw_fd(), EPOLLIN, TOKEN_HTTP).expect("register http listener");
        }
        EventLoop {
            state,
            epoll,
            wake,
            tcp,
            unix,
            http,
            conns: HashMap::new(),
            next_token: TOKEN_CONN0,
            shutdown_at: None,
        }
    }

    fn run(mut self) {
        let mut events = [EpollEvent { events: 0, token: 0 }; 256];
        loop {
            // While stopping, poll with a timeout so a stalled peer
            // cannot hold the process open past the linger window.
            let timeout = if self.shutdown_at.is_some() { 100 } else { -1 };
            let ready: Vec<(u64, u32)> = match self.epoll.wait(&mut events, timeout) {
                Ok(evs) => evs.iter().map(|e| (e.token, e.events)).collect(),
                Err(_) => return,
            };
            self.state.metrics.loop_wakeup(ready.len() as u64);
            for (token, bits) in ready {
                match token {
                    TOKEN_WAKE => self.wake.drain(),
                    TOKEN_TCP | TOKEN_UNIX | TOKEN_HTTP => self.accept_ready(token),
                    _ => self.conn_event(token, bits),
                }
            }
            self.deliver_completions();
            if let Some(started) = self.shutdown_at {
                let all_flushed = self.conns.values().all(|c| !c.buf.wants_write());
                if all_flushed || started.elapsed() > SHUTDOWN_LINGER {
                    return;
                }
            }
        }
    }

    /// Accepts until the listener runs dry. Over-cap connections are
    /// accepted and immediately closed — leaving them in the backlog
    /// would re-arm the (level-triggered) listener forever.
    fn accept_ready(&mut self, token: u64) {
        loop {
            let accepted = match token {
                TOKEN_TCP => self.tcp.as_ref().map(|l| l.accept().map(|(s, _)| Stream::Tcp(s))),
                TOKEN_HTTP => self.http.as_ref().map(|l| l.accept().map(|(s, _)| Stream::Tcp(s))),
                _ => self.unix.as_ref().map(|l| l.accept().map(|(s, _)| Stream::Unix(s))),
            };
            // `EAGAIN` (drained) or a failed accept: wait for readiness.
            let Some(Ok(stream)) = accepted else { return };
            if self.conns.len() >= self.state.cfg.max_conns {
                continue; // drop(stream) closes it
            }
            if set_nonblocking(stream.fd()).is_err() {
                continue;
            }
            let http = (token == TOKEN_HTTP).then(HttpParser::new);
            let token = self.next_token;
            self.next_token += 1;
            let interest = EPOLLIN | EPOLLRDHUP;
            if self.epoll.add(stream.fd(), interest, token).is_err() {
                continue;
            }
            self.conns.insert(
                token,
                Conn { stream, buf: ConnBuf::new(), interest, eof: false, http },
            );
            self.state.metrics.conn_accepted();
        }
    }

    /// One readiness report for a connection: read everything available,
    /// handle the completed lines, flush what can be flushed, and re-arm.
    fn conn_event(&mut self, token: u64, bits: u32) {
        if bits & EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
            self.read_ready(token);
        }
        if bits & EPOLLOUT != 0 {
            self.flush(token);
        }
        self.maintain(token);
    }

    /// Reads until `EAGAIN`/EOF, assembling and handling requests (line
    /// protocol or, on gateway connections, HTTP).
    fn read_ready(&mut self, token: u64) {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.buf.read_paused() {
                return; // output backlog too deep; maintain() re-arms later
            }
            let n = match conn.stream.read(&mut tmp) {
                Ok(0) => {
                    conn.eof = true;
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.state.metrics.eagain_read();
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            };
            if let Some(http) = &mut conn.http {
                for incoming in http.ingest(&tmp[..n]) {
                    self.process(token, incoming);
                }
                continue;
            }
            let (lines, oversized) = match conn.buf.ingest(&tmp[..n]) {
                Ingest::Lines(lines) => (lines, false),
                Ingest::Oversized(lines) => (lines, true),
            };
            for line in lines.iter().filter(|l| !l.trim().is_empty()) {
                let request = Request::parse(line.trim());
                self.process(token, Incoming { request, close: false });
            }
            if oversized {
                // Answer the violation, then hang up once it flushes.
                let msg = format!("request line exceeds {} bytes", crate::conn::MAX_LINE);
                self.respond(token, Err(ServeError::bad_request(msg)), true);
                return;
            }
        }
    }

    /// Handles one parsed request of either framing — or parks it behind
    /// an outstanding deferred response, keeping responses FIFO.
    fn process(&mut self, token: u64, incoming: Incoming) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.buf.blocked() {
            conn.buf.defer(incoming);
            return;
        }
        let outcome = match incoming.request {
            Ok(request) => handle_request(&self.state, token, request),
            Err(e) => Outcome::Reply(Err(e)),
        };
        match outcome {
            Outcome::Reply(response) => self.respond(token, response, incoming.close),
            Outcome::ReplyClose(response) => self.respond(token, Ok(response), true),
            Outcome::Deferred => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.buf.block(incoming.close);
                }
            }
        }
    }

    /// Frames one response for the connection's protocol — a bare line,
    /// or an HTTP response whose body *is* that line — and queues it,
    /// passing it through the fault seam unless it closes the connection
    /// (a `shutdown` answer must arrive: the server is stopping, so a
    /// retry could never reconnect to learn the outcome). Then flushes
    /// what the socket will take.
    fn respond(&mut self, token: u64, response: Result<Json, ServeError>, close: bool) {
        let fault = match &self.state.faults {
            Some(faults) if !close => faults.response(),
            _ => ResponseFault::Deliver,
        };
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let framed = match &conn.http {
            Some(_) => crate::http::frame_response(&response, close),
            None => crate::protocol::response_line(&response).into_bytes(),
        };
        match fault {
            ResponseFault::Deliver => conn.buf.queue(&framed),
            ResponseFault::Drop => {
                self.close_conn(token);
                return;
            }
            ResponseFault::Truncate => {
                conn.buf.queue(&framed[..framed.len() / 2]);
                conn.buf.close_after_flush();
            }
        }
        if close {
            conn.buf.close_after_flush();
        }
        self.flush(token);
    }

    /// Hands finished deferred responses from the workers to their
    /// connections, unblocking each and replaying any parked pipeline.
    fn deliver_completions(&mut self) {
        let (completions, stop) = {
            let mut core = self.state.core.lock().unwrap();
            (std::mem::take(&mut core.completions), core.stop)
        };
        for Completion { conn: token, response, close } in completions {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            let close = conn.buf.unblock() | close;
            self.respond(token, Ok(response), close);
            // Requests pipelined behind the deferred one now get served,
            // until one of them defers again.
            loop {
                let next = match self.conns.get_mut(&token) {
                    Some(conn) if !conn.buf.blocked() => conn.buf.next_deferred(),
                    _ => None,
                };
                match next {
                    Some(incoming) => self.process(token, incoming),
                    None => break,
                }
            }
            self.maintain(token);
        }
        if stop && self.shutdown_at.is_none() {
            self.begin_shutdown();
        }
    }

    /// Stops accepting, marks every connection to close once its output
    /// flushes, and starts the linger clock.
    fn begin_shutdown(&mut self) {
        if let Some(l) = self.tcp.take() {
            self.epoll.delete(l.as_raw_fd());
        }
        if let Some(l) = self.unix.take() {
            self.epoll.delete(l.as_raw_fd());
        }
        if let Some(l) = self.http.take() {
            self.epoll.delete(l.as_raw_fd());
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.buf.wants_write())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
        self.shutdown_at = Some(Instant::now());
    }

    /// Writes queued output; on backpressure the remainder stays and
    /// `EPOLLOUT` gets (re-)armed by `maintain`.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let Conn { stream, buf, .. } = conn;
        match buf.flush_into(stream) {
            Ok(true) => {}
            Ok(false) => self.state.metrics.partial_write(),
            Err(_) => self.close_conn(token),
        }
    }

    /// Recomputes the connection's interest set and closes it when its
    /// lifecycle says so.
    fn maintain(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let finished = conn.buf.done()
            || (conn.eof
                && !conn.buf.blocked()
                && !conn.buf.has_deferred()
                && !conn.buf.wants_write());
        if finished {
            self.close_conn(token);
            return;
        }
        let mut desired = 0;
        if !conn.eof && !conn.buf.read_paused() {
            desired |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.buf.wants_write() {
            desired |= EPOLLOUT;
        }
        if desired != conn.interest {
            if self.epoll.modify(conn.stream.fd(), desired, token).is_ok() {
                conn.interest = desired;
            } else {
                self.close_conn(token);
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.delete(conn.stream.fd());
            self.state.metrics.conn_closed();
        }
    }
}

/// Executes one request; quick ops answer inline, the formerly-blocking
/// ops register waiters.
fn handle_request(state: &Arc<ServerState>, token: u64, request: Request) -> Outcome {
    match request {
        Request::Ping => Outcome::Reply(Ok(ok_response([("pong", Json::Bool(true))]))),
        Request::Metrics => {
            let core = state.core.lock().unwrap();
            Outcome::Reply(Ok(ok_response([("metrics", dump_metrics(state, &core))])))
        }
        Request::Poll { job } => Outcome::Reply(handle_poll(state, job)),
        Request::Submit(spec) => handle_submit(state, token, &spec),
        Request::Drain => handle_drain(state, token),
        Request::Shutdown => handle_shutdown(state, token),
        Request::SnapshotExport { group } => Outcome::Reply(handle_snapshot_export(state, group)),
        Request::SnapshotImport { data } => Outcome::Reply(handle_snapshot_import(state, &data)),
    }
}

fn dump_metrics(state: &ServerState, core: &Core) -> Json {
    let dump = state.metrics.dump(
        core.queue.len() as u64,
        core.queue.parked_len() as u64,
        core.in_flight as u64,
    );
    match dump {
        Json::Obj(mut pairs) => {
            if state.store.is_some() {
                pairs.push(("snapshot".to_string(), state.metrics.snapshot_json()));
            }
            // Keyed off the *config*, not the open journal: an operator
            // whose journal failed recovery needs to see the rejection
            // counter, not an absent block.
            if state.cfg.journal_dir.is_some() {
                pairs.push(("journal".to_string(), state.metrics.journal_json()));
            }
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// `snapshot_export`: hands out a group's current frozen snapshot as
/// base64 of the `fastsim-snapshot/v3` bytes (or, with no group, lists
/// the exportable groups). The snapshot Arc is cloned under the lock and
/// encoded after releasing it.
fn handle_snapshot_export(
    state: &Arc<ServerState>,
    group: Option<u64>,
) -> Result<Json, ServeError> {
    let core = state.core.lock().unwrap();
    let Some(fingerprint) = group else {
        let mut groups: Vec<u64> = core.groups.keys().copied().collect();
        groups.sort_unstable();
        return Ok(ok_response([(
            "groups",
            Json::Arr(groups.iter().map(|fp| Json::Str(format!("{fp:016x}"))).collect()),
        )]));
    };
    let Some(ctl) = core.groups.get(&fingerprint) else {
        return Err(ServeError::bad_request(format!("unknown group {fingerprint:016x}")));
    };
    let snapshot = ctl.snapshot.clone();
    drop(core);
    let bytes = snapshot.encode();
    Ok(ok_response([
        ("group", Json::Str(format!("{fingerprint:016x}"))),
        ("bytes", Json::from(bytes.len() as u64)),
        ("data", Json::Str(crate::b64::encode(&bytes))),
    ]))
}

/// `snapshot_import`: strict-decodes an encoded snapshot and merges it
/// into the matching group's master (adopting it wholesale when the
/// server has never seen the configuration). The group's frozen snapshot
/// is refreshed immediately — the next job of the group thaws the
/// imported warmth — and, when the import changed it, the group's
/// snapshot is persisted when a store is configured, so the shipped
/// warmth survives a restart.
fn handle_snapshot_import(state: &Arc<ServerState>, data: &str) -> Result<Json, ServeError> {
    let rejected = |msg: String| {
        state.metrics.snapshot_rejected(1);
        ServeError::bad_request(format!("snapshot_import: {msg}"))
    };
    let bytes = crate::b64::decode(data).map_err(rejected)?;
    let snapshot = WarmCacheSnapshot::decode(&bytes, None)
        .map_err(|e| rejected(format!("rejected: {e}")))?;
    let fingerprint = snapshot.fingerprint();
    let mut core = state.core.lock().unwrap();
    let merge = core.driver.import_snapshot(&snapshot);
    let fresh =
        core.driver.current_snapshot(fingerprint).expect("import ensured the group's master");
    let changed = match core.groups.get_mut(&fingerprint) {
        Some(ctl) => replace_snapshot(ctl, &fresh),
        None => {
            core.groups.insert(fingerprint, GroupCtl::new(fresh.clone()));
            true
        }
    };
    drop(core);
    state.metrics.snapshot_loaded(bytes.len() as u64, 0);
    if changed {
        persist_snapshot(state, &fresh);
    }
    let mut members = vec![
        ("group", Json::Str(format!("{fingerprint:016x}"))),
        ("adopted", Json::Bool(merge.is_none())),
    ];
    if let Some(m) = merge {
        members.push((
            "merged",
            Json::obj([
                ("configs_added", Json::from(m.configs_added)),
                ("actions_added", Json::from(m.actions_added)),
                ("configs_deduped", Json::from(m.configs_deduped)),
            ]),
        ));
    }
    Ok(ok_response(members))
}

/// Installs `fresh` as the group's current snapshot; `false` when it is
/// the snapshot the group already had (a re-freeze with nothing new
/// merged hands back the same frozen cache), so there is nothing to
/// persist.
fn replace_snapshot(ctl: &mut GroupCtl, fresh: &WarmCacheSnapshot) -> bool {
    let changed = !std::ptr::eq(ctl.snapshot.cache(), fresh.cache());
    ctl.snapshot = fresh.clone();
    changed
}

/// Appends records to the journal and fsyncs (a no-op without one),
/// updating the journal counters. Called with the scheduler lock held —
/// the journal lock nests strictly inside it — because the append *is*
/// the durability point the subsequent acknowledgment relies on. An
/// append failure degrades durability, not service: it is logged and
/// counted, and the server keeps running.
fn journal_append(state: &ServerState, records: &[JournalRecord]) {
    let Some(journal) = &state.journal else { return };
    if records.is_empty() {
        return;
    }
    let mut journal = journal.lock().unwrap();
    match journal.append_all(records) {
        Ok(outcome) => {
            state.metrics.journal_appended(records.len() as u64);
            if outcome.rotated {
                state.metrics.journal_rotated();
            }
            if outcome.compacted {
                state.metrics.journal_compacted();
            }
        }
        Err(e) => {
            state.metrics.journal_rejected(1);
            eprintln!("journal: append failed ({e}); continuing without durability for it");
        }
    }
}

/// Persists one frozen snapshot to the store (a no-op without one), then
/// prunes old generations. Callers hold **no** locks: filesystem time
/// must never extend the scheduler's critical section.
fn persist_snapshot(state: &ServerState, snapshot: &WarmCacheSnapshot) {
    let Some(store) = &state.store else { return };
    match store.save(snapshot) {
        Ok(saved) => {
            state.metrics.snapshot_saved(saved.bytes as u64, saved.generation);
            let _ = store.prune(SNAPSHOT_KEEP_GENERATIONS);
        }
        Err(e) => eprintln!(
            "snapshot store: persist failed for group {:016x}: {e}",
            snapshot.fingerprint()
        ),
    }
}

fn handle_poll(state: &Arc<ServerState>, job: u64) -> Result<Json, ServeError> {
    let core = state.core.lock().unwrap();
    let record = core.jobs.get(&job).ok_or_else(|| ServeError::unknown_job(job))?;
    Ok(ok_response([("job", job_json(record))]))
}

/// A job's wire representation. Settled jobs carry their result or error;
/// the result fields are the *deterministic* simulation outputs (identical
/// to an offline run of the same job, whatever the cache warmth) plus the
/// warmth-dependent memoization counters, which are explicitly
/// serving-state-dependent (see `docs/serving.md`).
fn job_json(record: &JobRecord) -> Json {
    let mut pairs = vec![
        ("id".to_string(), Json::from(record.id)),
        ("name".to_string(), Json::from(record.name.as_str())),
        ("client".to_string(), Json::from(record.client.as_str())),
        ("status".to_string(), Json::from(record.status.as_str())),
        ("attempts".to_string(), Json::from(u64::from(record.attempts))),
    ];
    if let Some(report) = &record.result {
        pairs.push(("result".to_string(), report_json(report)));
    }
    if let Some(error) = &record.error {
        pairs.push(("error".to_string(), Json::from(error.as_str())));
    }
    Json::Obj(pairs)
}

fn report_json(report: &JobReport) -> Json {
    Json::obj([
        ("cycles", Json::from(report.stats.cycles)),
        ("retired_insts", Json::from(report.stats.retired_insts)),
        ("detailed_insts", Json::from(report.stats.detailed_insts)),
        ("replayed_insts", Json::from(report.stats.replayed_insts)),
        ("loads", Json::from(report.cache_stats.loads)),
        ("stores", Json::from(report.cache_stats.stores)),
        ("l1_misses", Json::from(report.cache_stats.l1_misses)),
        ("writebacks", Json::from(report.cache_stats.writebacks)),
        (
            "levels",
            Json::Arr(
                report
                    .level_stats
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("hits", Json::from(l.hits)),
                            ("misses", Json::from(l.misses)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("memo_hits", Json::from(report.memo_hits)),
        ("memo_misses", Json::from(report.memo_misses)),
        ("hit_rate", Json::Num((report.hit_rate() * 1e4).round() / 1e4)),
        ("wall_ms", Json::from(report.wall.as_millis() as u64)),
    ])
}

/// One expanded job plus the journal seed that can rebuild it: the base
/// kernel name (replica suffix stripped — a valid `Manifest::select`
/// input) and the resolved hierarchy preset.
struct ExpandedJob {
    job: BatchJob,
    kernel: String,
    hierarchy: Option<String>,
}

/// Expands a submission into concrete [`BatchJob`]s (kernel selection,
/// hierarchy-preset resolution, replication). Pure: no server state.
fn expand_submit(spec: &SubmitSpec) -> Result<Vec<ExpandedJob>, String> {
    let names: Vec<&str> = spec.kernels.iter().map(String::as_str).collect();
    let manifest = Manifest::select(&names, spec.insts).ok_or_else(|| {
        format!("unknown kernel in {:?} (see fastsim-workloads for the suite)", spec.kernels)
    })?;
    let manifest = manifest.replicated(spec.replicas);
    let mut jobs = Vec::with_capacity(manifest.len());
    for mj in manifest.into_jobs() {
        let preset = mj.hierarchy.as_deref().or(spec.hierarchy.as_deref());
        let kernel = mj.name.split('#').next().unwrap_or(&mj.name).to_string();
        let hierarchy = preset.map(str::to_string);
        let mut job = BatchJob::new(mj.name, mj.program);
        if let Some(p) = preset {
            job.hierarchy = HierarchyConfig::preset(p).ok_or_else(|| {
                format!(
                    "unknown hierarchy preset `{p}` (known: {})",
                    HierarchyConfig::preset_names().join(", ")
                )
            })?;
        }
        jobs.push(ExpandedJob { job, kernel, hierarchy });
    }
    Ok(jobs)
}

fn handle_submit(state: &Arc<ServerState>, token: u64, spec: &SubmitSpec) -> Outcome {
    let refuse = |msg: String| Outcome::Reply(Err(ServeError::bad_request(msg)));
    let jobs = match expand_submit(spec) {
        Ok(jobs) => jobs,
        Err(msg) => return refuse(msg),
    };
    let timeout = spec
        .timeout_ms
        .map(Duration::from_millis)
        .or(state.cfg.default_timeout);

    let mut core = state.core.lock().unwrap();
    if core.draining || core.stop {
        return refuse("server is draining; not accepting jobs".to_string());
    }
    // All-or-nothing admission: a half-admitted submission would make
    // `wait` block on jobs that were never queued.
    if core.queue.available() < jobs.len() {
        state.metrics.rejected(jobs.len() as u64);
        return refuse(format!(
            "queue full: {} jobs requested, {} slots free (capacity {})",
            jobs.len(),
            core.queue.available(),
            state.cfg.queue_capacity
        ));
    }
    let mut ids = Vec::with_capacity(jobs.len());
    let mut journaled = Vec::with_capacity(jobs.len());
    for expanded in jobs {
        let name = expanded.job.name.clone();
        let id = state
            .admit(
                &mut core,
                expanded.job,
                &spec.client,
                spec.priority,
                timeout,
                spec.chaos_panics,
            )
            .expect("capacity checked above");
        ids.push(id);
        journaled.push(JournalRecord::Submit(SubmitRecord {
            id,
            name,
            kernel: expanded.kernel,
            insts: spec.insts,
            client: spec.client.clone(),
            band: spec.priority as u32,
            hierarchy: expanded.hierarchy,
            timeout_ms: timeout.map(|t| t.as_millis() as u64),
            chaos_panics: spec.chaos_panics,
        }));
    }
    // Durability point: the submits are journaled and fsynced *before*
    // the acknowledgment below — an acked job survives a SIGKILL.
    journal_append(state, &journaled);
    state
        .metrics
        .submitted(ids.len() as u64, (core.queue.len() + core.queue.parked_len()) as u64);
    state.work.notify_all();

    if !spec.wait {
        return Outcome::Reply(Ok(ok_response([(
            "jobs",
            Json::Arr(ids.iter().map(|&id| Json::from(id)).collect()),
        )])));
    }
    // The response arrives as a Completion once every job settles; the
    // connection blocks (FIFO responses) but the I/O thread does not.
    core.waiters.push(Waiter { conn: token, kind: WaitKind::Jobs(ids) });
    Outcome::Deferred
}

fn handle_drain(state: &Arc<ServerState>, token: u64) -> Outcome {
    let mut core = state.core.lock().unwrap();
    core.draining = true;
    if core.drained() {
        return Outcome::Reply(Ok(ok_response([
            ("drained", Json::Bool(true)),
            ("metrics", dump_metrics(state, &core)),
        ])));
    }
    core.waiters.push(Waiter { conn: token, kind: WaitKind::Drain });
    Outcome::Deferred
}

fn handle_shutdown(state: &Arc<ServerState>, token: u64) -> Outcome {
    let mut core = state.core.lock().unwrap();
    core.draining = true;
    if core.drained() {
        core.stop = true;
        state.work.notify_all();
        return Outcome::ReplyClose(ok_response([
            ("stopped", Json::Bool(true)),
            ("metrics", dump_metrics(state, &core)),
        ]));
    }
    core.waiters.push(Waiter { conn: token, kind: WaitKind::Shutdown });
    Outcome::Deferred
}

/// Settles every waiter whose condition now holds, pushing the finished
/// responses onto [`Core::completions`]. Returns whether any settled (the
/// caller wakes the I/O loop). A settling `shutdown` waiter also stops
/// the workers.
fn settle_waiters(state: &ServerState, core: &mut Core) -> bool {
    let mut settled_any = false;
    let mut i = 0;
    while i < core.waiters.len() {
        let ready = match &core.waiters[i].kind {
            WaitKind::Jobs(ids) => ids.iter().all(|id| core.jobs[id].status.settled()),
            WaitKind::Drain | WaitKind::Shutdown => core.drained(),
        };
        if !ready {
            i += 1;
            continue;
        }
        let waiter = core.waiters.swap_remove(i);
        let (response, close) = match &waiter.kind {
            WaitKind::Jobs(ids) => (
                ok_response([(
                    "jobs",
                    Json::Arr(ids.iter().map(|id| job_json(&core.jobs[id])).collect()),
                )]),
                false,
            ),
            WaitKind::Drain => (
                ok_response([
                    ("drained", Json::Bool(true)),
                    ("metrics", dump_metrics(state, core)),
                ]),
                false,
            ),
            WaitKind::Shutdown => {
                core.stop = true;
                state.work.notify_all();
                (
                    ok_response([
                        ("stopped", Json::Bool(true)),
                        ("metrics", dump_metrics(state, core)),
                    ]),
                    true,
                )
            }
        };
        core.completions.push(Completion { conn: waiter.conn, response, close });
        settled_any = true;
    }
    settled_any
}

/// A persistent worker: pop a runnable job, run it outside the lock under
/// `catch_unwind`, then settle/park it and settle any waiters that were
/// waiting on it. Exits when `stop` is set (which only happens after a
/// drain, so exiting never strands a job). Idle workers sleep on the
/// `work` condvar — signaled on submit, park, and stop — with a timed
/// wait only when a parked job's backoff deadline is pending.
fn worker_loop(state: &Arc<ServerState>) {
    loop {
        // Claim a runnable job.
        let mut core = state.core.lock().unwrap();
        let (id, job, snapshot, deadline, panics) = loop {
            if core.stop {
                return;
            }
            if let Some(entry) = core.queue.pop_ready(Instant::now()) {
                let record = core.jobs.get_mut(&entry.id).expect("queued jobs have records");
                record.status = JobStatus::Running;
                record.attempts += 1;
                let panics = record.attempts <= record.chaos_panics
                    || state.faults.as_ref().is_some_and(|f| f.attempt_panics());
                let job = record.job.take().expect("queued jobs carry their BatchJob");
                let deadline = record.timeout.map(|t| Instant::now() + t);
                let fingerprint = record.fingerprint;
                let snapshot = core.groups[&fingerprint].snapshot.clone();
                core.in_flight += 1;
                journal_append(state, &[JournalRecord::Start { id: entry.id }]);
                break (entry.id, job, snapshot, deadline, panics);
            }
            // Nothing runnable: sleep until the earliest parked job is
            // due, or indefinitely when nothing is parked — enqueues and
            // stop signal the condvar, so there is no poll interval.
            match core.queue.next_wakeup() {
                Some(due) => {
                    let now = Instant::now();
                    if due <= now {
                        continue;
                    }
                    core = state.work.wait_timeout(core, due - now).unwrap().0;
                }
                None => core = state.work.wait(core).unwrap(),
            }
        };
        drop(core);

        // Run outside the lock. Panics (including injected ones) are
        // caught; the shared caches only ever see *successful* outcomes.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            assert!(!panics, "chaos injection: attempt panicked on request");
            run_single(&job, &snapshot, deadline)
        }));

        let mut core = state.core.lock().unwrap();
        core.in_flight -= 1;
        let mut persist: Option<WarmCacheSnapshot> = None;
        match outcome {
            Ok(Ok(single)) => {
                let record = core.jobs.get_mut(&id).expect("running jobs have records");
                record.status = JobStatus::Done;
                let latency = record.submitted.elapsed();
                let fingerprint = record.fingerprint;
                let mut report = single.report;
                let hits = report.memo_hits;
                let lookups = report.memo_hits + report.memo_misses;
                report.merge = core
                    .driver
                    .merge_delta(fingerprint, &single.delta)
                    .expect("group exists while its jobs live");
                core.jobs.get_mut(&id).unwrap().result = Some(report);
                state.metrics.completed(latency);
                // Settled before the result is observable: a kill after
                // this line can never rerun the job.
                journal_append(state, &[JournalRecord::Complete { id }]);

                // Re-freeze cadence: after `refreeze_every` merges, freeze
                // the accumulated master so later jobs start warmer, and
                // record the window's hit rate on the metrics trend.
                let group = core.groups.get_mut(&fingerprint).expect("group exists");
                group.deltas_since_freeze += 1;
                group.hits_window += hits;
                group.lookups_window += lookups;
                if group.deltas_since_freeze >= state.cfg.refreeze_every.max(1) {
                    let rate = group.window_hit_rate();
                    group.deltas_since_freeze = 0;
                    group.hits_window = 0;
                    group.lookups_window = 0;
                    let fresh = core
                        .driver
                        .current_snapshot(fingerprint)
                        .expect("group exists");
                    let group = core.groups.get_mut(&fingerprint).expect("group exists");
                    if replace_snapshot(group, &fresh) {
                        persist = Some(fresh);
                    }
                    state.metrics.refrozen(fingerprint, rate);
                }
            }
            Ok(Err(failure)) => {
                // Deterministic failures (bad config, sim error, deadline)
                // are not retried: the retry budget is for panics.
                match failure {
                    JobFailure::Timeout { .. } => state.metrics.timeout(),
                    _ => state.metrics.failed(),
                }
                let record = core.jobs.get_mut(&id).expect("running jobs have records");
                record.status = JobStatus::Failed;
                let reason = failure.to_string();
                record.error = Some(reason.clone());
                journal_append(state, &[JournalRecord::Abandon { id, reason }]);
            }
            Err(payload) => {
                state.metrics.panicked();
                let msg = panic_message(payload.as_ref());
                let record = core.jobs.get_mut(&id).expect("running jobs have records");
                if record.attempts >= state.cfg.max_attempts.max(1) {
                    record.status = JobStatus::Quarantined;
                    let reason = format!(
                        "quarantined after {} panicking attempts (last: {msg})",
                        record.attempts
                    );
                    record.error = Some(reason.clone());
                    state.metrics.quarantined();
                    journal_append(state, &[JournalRecord::Abandon { id, reason }]);
                } else {
                    // Park for exponential backoff, then retry.
                    record.status = JobStatus::Queued;
                    record.job = Some(job);
                    let backoff = state.cfg.backoff_base * 2u32.pow(record.attempts - 1);
                    let entry = crate::queue::QueueEntry {
                        id,
                        client: record.client.clone(),
                        band: record.band,
                    };
                    core.queue.park(entry, Instant::now() + backoff);
                    state.metrics.retried();
                }
            }
        }
        // Whatever settled may have satisfied waiters; finished responses
        // ride the wake pipe back to the I/O loop.
        if settle_waiters(state, &mut core) {
            state.waker.wake();
        }
        state.work.notify_all();
        drop(core);
        // Durability rides the worker thread, after the scheduler lock is
        // gone: freezing already produced the Arc'd snapshot, so the only
        // work left is encoding and an atomic tmp+rename publish.
        if let Some(snapshot) = persist {
            persist_snapshot(state, &snapshot);
        }
    }
}

/// Best-effort panic payload rendering.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
