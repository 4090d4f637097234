//! The resident mining server.
//!
//! One [`Server::bind`] call loads nothing — the caller passes the
//! already-loaded taxonomy and database — and starts three kinds of
//! threads:
//!
//! * an **accept loop** that refuses connections beyond
//!   [`ServeOptions::max_connections`] (with a `shed` line, never a
//!   silent drop);
//! * one **connection handler** per client, which frames JSON lines
//!   under a read deadline and size cap, parses and dispatches requests,
//!   and watches for mid-request disconnects;
//! * a fixed **worker pool** of [`ServeOptions::workers`] mining
//!   threads fed by a bounded queue of depth
//!   [`ServeOptions::queue_depth`].
//!
//! # Admission control and load shedding
//!
//! A mine request is admitted by pushing its job onto the bounded queue.
//! A full queue means the server is saturated: the handler immediately
//! answers `shed` with a `retry_after_ms` hint derived from the
//! observed mean service time and current queue depth — clients back
//! off, the server never builds an unbounded backlog, and in-flight
//! requests are unaffected.
//!
//! # Governance and graceful degradation
//!
//! Every admitted job runs under [`GovernOptions`]: the request's
//! deadline (clamped to [`ServeOptions::max_time_limit`], measured from
//! *enqueue* so queue wait counts against it), pattern and memory
//! budgets, and a per-request [`CancelToken`]. A tripped budget or
//! deadline returns the engine's sound serial-prefix partial result
//! with its truthful [`Termination`] — the response is still `result`,
//! with `termination.reason` naming the trip. A client whose socket
//! errors out mid-request (reset, aborted) trips its token; the worker
//! observes it at the next class admission and is reclaimed for other
//! requests. A mere read-side EOF is *not* a disconnect: one-shot
//! clients that half-close after sending still receive their response.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or a client `shutdown` op, or
//! [`ServerHandle::request_shutdown`]) drains: no new connections or
//! admissions, queued and running jobs finish under
//! [`ServeOptions::drain_deadline`], then any stragglers are cancelled
//! via their tokens (returning truthful partials), worker threads are
//! joined, and lingering sockets are force-closed. The drain report
//! says whether the stop was clean.
//!
//! [`Termination`]: taxogram_core::Termination

use crate::cache::{filter_run, ConfigKey, ResultCache};
use crate::protocol::{
    error_response, parse_request, shed_response, CacheStatus, ErrorCode, MineRequest, Request,
};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering}; // tsg-lint: allow(facade) — serve is std-only-threaded by design (DESIGN.md §16): real sockets/OS threads cannot run under the model runtime; orderings audited per-site below
use std::sync::{mpsc, Arc, Condvar, Mutex}; // tsg-lint: allow(facade) — same §16 carve-out: queue/condvar protocol exercised by the fault matrix, not the model checker
use std::thread::JoinHandle; // tsg-lint: allow(facade) — worker/accept threads are real OS threads joined at drain; §16
use std::time::{Duration, Instant};
use taxogram_core::{
    Budget, CancelToken, GovernOptions, MiningOutcome, MiningResult, MiningStats, Taxogram,
    TaxogramConfig, Termination, TerminationReason,
};
use tsg_graph::GraphDatabase;
use tsg_taxonomy::Taxonomy;

/// Server tuning knobs. The defaults suit an interactive deployment;
/// tests shrink the timeouts.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Mining worker threads (the concurrent-admission cap).
    pub workers: usize,
    /// Bounded job-queue depth; a full queue sheds.
    pub queue_depth: usize,
    /// Concurrent connection cap; excess connections get a `shed` line.
    pub max_connections: usize,
    /// Maximum request-line size in bytes.
    pub max_frame_bytes: usize,
    /// Deadline for assembling one frame (slow-loris bound) and for
    /// idling between frames.
    pub read_timeout: Duration,
    /// Socket write timeout for responses.
    pub write_timeout: Duration,
    /// Ceiling on client-requested per-request deadlines.
    pub max_time_limit: Duration,
    /// Deadline applied to requests that ask for none (`None` = run
    /// unbounded).
    pub default_time_limit: Option<Duration>,
    /// How long shutdown waits for in-flight work before cancelling it.
    pub drain_deadline: Duration,
    /// θ-keyed result-cache capacity in entries; zero disables.
    pub cache_entries: usize,
    /// Floor for the shed `retry_after_ms` hint.
    pub shed_retry_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            queue_depth: 8,
            max_connections: 64,
            max_frame_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_time_limit: Duration::from_secs(60),
            default_time_limit: None,
            drain_deadline: Duration::from_secs(5),
            cache_entries: 8,
            shed_retry_ms: 100,
        }
    }
}

/// Monotone server counters, all updated with relaxed atomics (pure
/// tallies — nothing synchronizes through them).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    results_ok: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cancelled: AtomicU64,
    connections_accepted: AtomicU64,
    connections_refused: AtomicU64,
}

/// A point-in-time copy of the server's counters and gauges.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsSnapshot {
    /// Mine requests received (parsed and dispatched).
    pub requests: u64,
    /// `result` responses delivered, complete or degraded.
    pub results_ok: u64,
    /// `result` responses whose run tripped a budget/deadline/cancel
    /// (truthful partials).
    pub degraded: u64,
    /// `shed` responses (queue full or connection cap).
    pub shed: u64,
    /// Typed `error` responses.
    pub errors: u64,
    /// Requests answered by θ-filtering the cache.
    pub cache_hits: u64,
    /// Requests mined fresh with caching enabled.
    pub cache_misses: u64,
    /// Requests whose client vanished mid-run (token tripped).
    pub cancelled: u64,
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections refused at the cap.
    pub connections_refused: u64,
    /// Jobs currently inside mining workers.
    pub in_flight: usize,
    /// Jobs waiting in the admission queue.
    pub queued: usize,
    /// Live connection handlers.
    pub active_connections: usize,
    /// Resident cache entries.
    pub cache_entries: usize,
    /// Milliseconds since bind.
    pub uptime_ms: f64,
    /// EWMA of mining service time, ms.
    pub avg_mine_ms: f64,
}

/// What `shutdown` observed while draining.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// Every job finished before the drain deadline (no forced cancels).
    pub clean: bool,
    /// Outstanding jobs force-cancelled at the deadline.
    pub forced_cancels: usize,
    /// Connection handlers still alive after the drain (0 on a clean
    /// stop; they are socket-closed and exit promptly, but are counted
    /// truthfully).
    pub leaked_connections: usize,
    /// Wall-clock drain duration.
    pub drain_ms: f64,
}

struct Job {
    id: u64,
    req: MineRequest,
    cancel: CancelToken,
    /// Absolute deadline measured from enqueue, so queue wait counts.
    deadline: Option<Instant>,
    reply: mpsc::Sender<JobReply>,
}

struct JobReply {
    outcome: Result<MiningOutcome, taxogram_core::TaxogramError>,
    mine_ms: f64,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded admission queue: `try_push` refuses instead of blocking
/// (that refusal *is* the load-shedding signal), `pop` blocks until a
/// job arrives or the queue is closed **and** drained.
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    fn new(depth: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// `false` means the queue refused (full or closed) — the caller
    /// sheds; the job is dropped here.
    fn try_push(&self, job: Job) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.closed || s.jobs.len() >= self.depth {
            return false;
        }
        s.jobs.push_back(job);
        drop(s);
        self.ready.notify_one();
        true
    }

    fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = s.jobs.pop_front() {
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.closed = true;
        drop(s);
        self.ready.notify_all();
    }

    fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).jobs.len()
    }
}

struct Shared {
    db: GraphDatabase,
    taxonomy: Taxonomy,
    opts: ServeOptions,
    queue: JobQueue,
    cache: ResultCache,
    counters: Counters,
    /// No new connections/admissions once set.
    draining: AtomicBool,
    /// A shutdown was asked for (admin op / handle); the owner should
    /// call [`ServerHandle::shutdown`].
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    active_conns: AtomicUsize,
    in_flight: AtomicUsize,
    /// Wakes the drain waiter whenever a job finishes.
    drain_cv: Condvar,
    drain_lock: Mutex<()>,
    /// Live connection sockets, for force-close at drain end.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Cancel tokens of admitted-but-unfinished jobs.
    tokens: Mutex<HashMap<u64, CancelToken>>,
    next_id: AtomicU64,
    /// EWMA of mining service time in microseconds.
    avg_mine_us: AtomicU64,
    started: Instant,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        let c = &self.counters;
        StatsSnapshot {
            requests: c.requests.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            results_ok: c.results_ok.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            degraded: c.degraded.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            shed: c.shed.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            errors: c.errors.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            cache_hits: c.cache_hits.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            cache_misses: c.cache_misses.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            cancelled: c.cancelled.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            connections_refused: c.connections_refused.load(Ordering::Relaxed), // tsg-lint: ordering(ORD-15)
            in_flight: self.in_flight.load(Ordering::Acquire), // tsg-lint: ordering(ORD-17)
            queued: self.queue.len(),
            active_connections: self.active_conns.load(Ordering::Acquire), // tsg-lint: ordering(ORD-18)
            cache_entries: self.cache.len(),
            uptime_ms: self.started.elapsed().as_secs_f64() * 1000.0,
            avg_mine_ms: self.avg_mine_us.load(Ordering::Relaxed) as f64 / 1000.0, // tsg-lint: ordering(ORD-20)
        }
    }

    fn request_shutdown(&self) {
        let mut flag = self
            .shutdown_requested
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *flag = true;
        drop(flag);
        self.shutdown_cv.notify_all();
    }

    /// The shed backoff hint: queue depth × mean service time ÷ workers,
    /// floored at the configured minimum and capped at 30 s.
    fn retry_hint_ms(&self) -> u64 {
        let avg_ms = self.avg_mine_us.load(Ordering::Relaxed) / 1000; // tsg-lint: ordering(ORD-20)
        let est = (self.queue.len() as u64 + 1) * avg_ms / self.opts.workers.max(1) as u64;
        est.clamp(self.opts.shed_retry_ms, 30_000)
    }

    fn record_mine_time(&self, mine_ms: f64) {
        let sample = (mine_ms * 1000.0) as u64;
        // A compare-exchange loop so concurrent workers never lose each
        // other's EWMA contribution.
        let _ = self
            .avg_mine_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| { // tsg-lint: ordering(ORD-20)
                Some(if old == 0 { sample } else { old - old / 8 + sample / 8 })
            });
    }
}

/// A running server: its address plus the handles needed to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    finished: bool,
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over an
    /// already-loaded database and taxonomy, and starts accepting.
    ///
    /// # Errors
    /// Any socket-level bind failure.
    pub fn bind(
        addr: &str,
        db: GraphDatabase,
        taxonomy: Taxonomy,
        opts: ServeOptions,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let cache_entries = opts.cache_entries;
        let queue_depth = opts.queue_depth;
        let workers = opts.workers.max(1);
        let shared = Arc::new(Shared {
            db,
            taxonomy,
            opts,
            queue: JobQueue::new(queue_depth),
            cache: ResultCache::new(cache_entries),
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            active_conns: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            drain_cv: Condvar::new(),
            drain_lock: Mutex::new(()),
            conns: Mutex::new(HashMap::new()),
            tokens: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            avg_mine_us: AtomicU64::new(0),
            started: Instant::now(),
        });
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new() // tsg-lint: allow(facade) — real worker-pool thread, joined in shutdown_impl; §16
                    .name(format!("tsg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker") // tsg-lint: allow(panic) — spawn failure during startup is fatal before any request is accepted
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new() // tsg-lint: allow(facade) — real accept-loop thread, joined in shutdown_impl; §16
                .name("tsg-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor") // tsg-lint: allow(panic) — spawn failure during startup is fatal before any request is accepted
        };
        Ok(ServerHandle {
            addr: local,
            shared,
            accept: Some(accept),
            workers: worker_handles,
            finished: false,
        })
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Asks the owner loop to shut down (same effect as a client
    /// `shutdown` op); actually draining still requires
    /// [`ServerHandle::shutdown`].
    pub fn request_shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until a shutdown is requested (admin op or
    /// [`ServerHandle::request_shutdown`]) or `timeout` passes; `true`
    /// if a request arrived.
    pub fn wait_shutdown_requested(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut flag = self
            .shared
            .shutdown_requested
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        loop {
            if *flag {
                return true;
            }
            match deadline {
                None => {
                    flag = self
                        .shared
                        .shutdown_cv
                        .wait(flag)
                        .unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return false;
                    }
                    let (f, _) = self
                        .shared
                        .shutdown_cv
                        .wait_timeout(flag, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    flag = f;
                }
            }
        }
    }

    /// Gracefully drains and stops the server; see the module docs for
    /// the protocol. Idempotent via [`Drop`] (a handle dropped without
    /// calling this shuts down the same way).
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> DrainReport {
        let start = Instant::now();
        let shared = &self.shared;
        shared.draining.store(true, Ordering::Release); // tsg-lint: ordering(ORD-16)
        shared.request_shutdown();
        // Unblock the accept loop with a throwaway self-connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));

        // Phase 1: wait for queued + running jobs under the deadline.
        let deadline = start + shared.opts.drain_deadline;
        let mut guard = shared.drain_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut clean = true;
        loop {
            if shared.in_flight.load(Ordering::Acquire) == 0 && shared.queue.len() == 0 { // tsg-lint: ordering(ORD-17)
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                clean = false;
                break;
            }
            let (g, _) = shared
                .drain_cv
                .wait_timeout(guard, (deadline - now).min(Duration::from_millis(50)))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
        drop(guard);

        // Phase 2: force-cancel stragglers; their governed runs return
        // truthful partial results within one class admission.
        let forced: Vec<CancelToken> = {
            let tokens = shared.tokens.lock().unwrap_or_else(|e| e.into_inner());
            tokens.values().cloned().collect()
        };
        for t in &forced {
            t.cancel();
        }
        let forced_cancels = forced.len();
        if forced_cancels > 0 {
            let grace = Instant::now() + shared.opts.drain_deadline;
            let mut guard = shared.drain_lock.lock().unwrap_or_else(|e| e.into_inner());
            while shared.in_flight.load(Ordering::Acquire) != 0 && Instant::now() < grace { // tsg-lint: ordering(ORD-17)
                let (g, _) = shared
                    .drain_cv
                    .wait_timeout(guard, Duration::from_millis(25))
                    .unwrap_or_else(|e| e.into_inner());
                guard = g;
            }
            drop(guard);
        }

        // Phase 3: stop the workers and reap the accept loop.
        shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }

        // Phase 4: force-close lingering connections so their handler
        // threads exit promptly rather than waiting out a read timeout.
        {
            let conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            for stream in conns.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let close_deadline = Instant::now() + Duration::from_secs(2);
        while shared.active_conns.load(Ordering::Acquire) != 0 && Instant::now() < close_deadline { // tsg-lint: ordering(ORD-18)
            std::thread::sleep(Duration::from_millis(5)); // tsg-lint: allow(facade) — bounded poll-sleep while lingering connections close; §16
        }

        self.finished = true;
        DrainReport {
            clean: clean && forced_cancels == 0,
            forced_cancels,
            leaked_connections: shared.active_conns.load(Ordering::Acquire), // tsg-lint: ordering(ORD-18)
            drain_ms: start.elapsed().as_secs_f64() * 1000.0,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.shutdown_impl();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.draining.load(Ordering::Acquire) { // tsg-lint: ordering(ORD-16)
            break;
        }
        let Ok(stream) = conn else { continue };
        if shared.active_conns.load(Ordering::Acquire) >= shared.opts.max_connections { // tsg-lint: ordering(ORD-18)
            shared
                .counters
                .connections_refused
                .fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
            // Refuse loudly: a shed line, then close. Best-effort — the
            // client may already be gone.
            let mut s = stream;
            let _ = s.set_write_timeout(Some(Duration::from_millis(250)));
            let mut line = shed_response(None, shared.retry_hint_ms());
            line.push('\n');
            let _ = s.write_all(line.as_bytes());
            continue;
        }
        shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
        shared.active_conns.fetch_add(1, Ordering::AcqRel); // tsg-lint: ordering(ORD-18)
        let conn_id = shared.next_id.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-19)
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(conn_id, clone);
        }
        let shared_conn = Arc::clone(shared);
        let spawned = std::thread::Builder::new() // tsg-lint: allow(facade) — per-connection handler thread, force-closed at drain end; §16
            .name(format!("tsg-serve-conn-{conn_id}"))
            .spawn(move || {
                handle_connection(&shared_conn, stream, conn_id);
                shared_conn
                    .conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(&conn_id);
                shared_conn.active_conns.fetch_sub(1, Ordering::AcqRel); // tsg-lint: ordering(ORD-18)
            });
        if spawned.is_err() {
            // Thread spawn failed (resource exhaustion): undo the
            // accounting; the stream closes on drop.
            shared.active_conns.fetch_sub(1, Ordering::AcqRel); // tsg-lint: ordering(ORD-18)
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&conn_id);
        }
    }
}

/// What one framing attempt produced.
enum FrameEvent {
    /// A complete line (without the terminator).
    Frame(String),
    /// Clean end of stream between frames.
    Eof,
    /// The client vanished mid-frame.
    EofMidFrame,
    /// No bytes at all for a full read-timeout window.
    Idle,
    /// A partial frame stalled past the read deadline (slow loris).
    Stalled,
    /// The frame exceeded the size cap.
    TooLarge,
    /// The server is draining.
    Draining,
    /// Unrecoverable socket error.
    Broken,
}

/// Newline framing over a socket with a per-frame assembly deadline, an
/// idle deadline, and a size cap. The socket's own read timeout is kept
/// short so the draining flag is observed promptly.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame: usize,
    frame_deadline: Duration,
}

impl FrameReader {
    fn new(stream: TcpStream, max_frame: usize, frame_deadline: Duration) -> Self {
        let poll = frame_deadline.min(Duration::from_millis(100)).max(Duration::from_millis(5));
        let _ = stream.set_read_timeout(Some(poll));
        FrameReader {
            stream,
            buf: Vec::new(),
            max_frame,
            frame_deadline,
        }
    }

    fn next_frame(&mut self, draining: &AtomicBool) -> FrameEvent {
        let started = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return match String::from_utf8(line) {
                    Ok(s) => FrameEvent::Frame(s),
                    // Surface invalid UTF-8 as a malformed frame (the
                    // caller answers with a typed error).
                    Err(_) => FrameEvent::Frame("\u{FFFD}".into()),
                };
            }
            if self.buf.len() > self.max_frame {
                self.buf.clear();
                return FrameEvent::TooLarge;
            }
            if draining.load(Ordering::Acquire) { // tsg-lint: ordering(ORD-16)
                return FrameEvent::Draining;
            }
            if started.elapsed() >= self.frame_deadline {
                return if self.buf.is_empty() {
                    FrameEvent::Idle
                } else {
                    FrameEvent::Stalled
                };
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        FrameEvent::Eof
                    } else {
                        FrameEvent::EofMidFrame
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]), // tsg-lint: allow(index) — read returned n <= chunk.len()
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return FrameEvent::Broken,
            }
        }
    }
}

/// What a read-side probe of the peer observed. Used while a mine job is
/// in flight to decide between cancelling and delivering.
enum PeerState {
    /// The read side is open (no bytes, or pipelined bytes waiting).
    Open,
    /// The peer sent FIN: it will write nothing more, but a one-shot
    /// client that `shutdown(Write)`s after its request is still
    /// reading — the response must be delivered, not cancelled. (TCP
    /// cannot distinguish that client from one that fully closed; the
    /// delivery write to a fully-closed peer just fails harmlessly.)
    HalfClosed,
    /// A socket error (reset, aborted): nobody is listening.
    Gone,
}

fn peer_state(stream: &TcpStream) -> PeerState {
    if stream.set_nonblocking(true).is_err() {
        return PeerState::Gone;
    }
    let mut probe = [0u8; 1];
    let state = match stream.peek(&mut probe) {
        Ok(0) => PeerState::HalfClosed,
        Ok(_) => PeerState::Open,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            PeerState::Open
        }
        Err(_) => PeerState::Gone,
    };
    let _ = stream.set_nonblocking(false);
    state
}

/// Sends `line` and its `\n`. A `result` line arrives with that byte
/// already reserved (see [`crate::protocol::result_response`]), so a
/// multi-megabyte response is not reallocated for it.
fn write_line(stream: &mut TcpStream, mut line: String) -> bool {
    line.push('\n');
    stream.write_all(line.as_bytes()).is_ok()
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream, _conn_id: u64) {
    let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = FrameReader::new(
        read_half,
        shared.opts.max_frame_bytes,
        shared.opts.read_timeout,
    );
    loop {
        match reader.next_frame(&shared.draining) {
            FrameEvent::Frame(frame) => {
                if !dispatch_frame(shared, &mut stream, &reader.stream, &frame) {
                    break;
                }
            }
            FrameEvent::TooLarge => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
                let _ = write_line(
                    &mut stream,
                    error_response(
                        None,
                        ErrorCode::FrameTooLarge,
                        &format!("frame exceeds {} bytes", shared.opts.max_frame_bytes),
                    ),
                );
                break;
            }
            FrameEvent::Stalled => {
                shared.counters.errors.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
                let _ = write_line(
                    &mut stream,
                    error_response(
                        None,
                        ErrorCode::ReadStalled,
                        &format!(
                            "frame not completed within {} ms",
                            shared.opts.read_timeout.as_millis()
                        ),
                    ),
                );
                break;
            }
            FrameEvent::Draining => {
                // Quietly close idle connections during drain; a client
                // mid-frame gets the same treatment (its next request
                // would be refused anyway).
                break;
            }
            FrameEvent::Eof
            | FrameEvent::EofMidFrame
            | FrameEvent::Idle
            | FrameEvent::Broken => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Handles one parsed frame; `false` closes the connection.
fn dispatch_frame(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    read_half: &TcpStream,
    frame: &str,
) -> bool {
    let req = match parse_request(frame) {
        Ok(r) => r,
        Err((code, msg)) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
            // A parse failure is frame-local: framing is intact, so the
            // connection stays usable.
            return write_line(stream, error_response(None, code, &msg));
        }
    };
    match req {
        Request::Ping => write_line(
            stream,
            format!(
                "{{\"id\":null,\"type\":\"pong\",\"database_size\":{},\"concepts\":{}}}",
                shared.db.len(),
                shared.taxonomy.concept_count()
            ),
        ),
        Request::Stats => {
            let s = shared.snapshot();
            write_line(stream, stats_json(&s))
        }
        Request::Shutdown => {
            let _ = write_line(
                stream,
                "{\"id\":null,\"type\":\"shutdown-ack\",\"draining\":true}".to_owned(),
            );
            shared.request_shutdown();
            false
        }
        Request::Mine(m) => handle_mine(shared, stream, read_half, m),
    }
}

/// Renders a [`StatsSnapshot`] as the `stats` response line.
pub fn stats_json(s: &StatsSnapshot) -> String {
    format!(
        "{{\"id\":null,\"type\":\"stats\",\"requests\":{},\"results_ok\":{},\"degraded\":{},\"shed\":{},\"errors\":{},\"cache_hits\":{},\"cache_misses\":{},\"cancelled\":{},\"connections_accepted\":{},\"connections_refused\":{},\"in_flight\":{},\"queued\":{},\"active_connections\":{},\"cache_entries\":{},\"uptime_ms\":{:.1},\"avg_mine_ms\":{:.3}}}",
        s.requests,
        s.results_ok,
        s.degraded,
        s.shed,
        s.errors,
        s.cache_hits,
        s.cache_misses,
        s.cancelled,
        s.connections_accepted,
        s.connections_refused,
        s.in_flight,
        s.queued,
        s.active_connections,
        s.cache_entries,
        s.uptime_ms,
        s.avg_mine_ms,
    )
}

fn handle_mine(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    read_half: &TcpStream,
    m: MineRequest,
) -> bool {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
    let id = m.id.clone();
    let id_ref = id.as_deref();
    if shared.draining.load(Ordering::Acquire) { // tsg-lint: ordering(ORD-16)
        shared.counters.errors.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
        return write_line(
            stream,
            error_response(id_ref, ErrorCode::ShuttingDown, "server is draining"),
        );
    }

    let key = ConfigKey {
        max_edges: m.max_edges,
        baseline: m.baseline,
    };
    let use_cache = !m.no_cache && !shared.cache.is_disabled();

    // Cache path: answer by θ-filtering a cached complete lower-θ run.
    // Sound by the θ-monotonicity argument (see `cache`); no admission
    // needed — filtering is orders of magnitude cheaper than mining, so
    // cache hits keep flowing even when the worker pool saturates.
    if use_cache {
        if let Some(hit) = shared.cache.lookup(&key, m.theta) {
            shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
            shared.counters.results_ok.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
            let started = Instant::now();
            let floor = shared.db.min_support_count(m.theta);
            let patterns = filter_run(&hit.run, floor);
            // Echo the cached run's own (complete) termination report —
            // its class tallies are real, not fabricated zeros.
            return write_line(
                stream,
                crate::protocol::result_response(
                    id_ref,
                    &patterns,
                    &hit.termination,
                    floor,
                    shared.db.len(),
                    CacheStatus::Hit,
                    started.elapsed().as_secs_f64() * 1000.0,
                ),
            );
        }
        shared.counters.cache_misses.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
    }

    // Admission: a slot in the bounded queue or a typed shed.
    let theta = m.theta;
    let job_id = shared.next_id.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-19)
    let cancel = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let limit = m
        .time_limit
        .map(|d| d.min(shared.opts.max_time_limit))
        .or(shared.opts.default_time_limit);
    let job = Job {
        id: job_id,
        req: m,
        cancel: cancel.clone(),
        deadline: limit.map(|d| Instant::now() + d),
        reply: tx,
    };
    shared
        .tokens
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(job_id, cancel.clone());
    if !shared.queue.try_push(job) {
        shared
            .tokens
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job_id);
        shared.counters.shed.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
        return write_line(stream, shed_response(id_ref, shared.retry_hint_ms()));
    }

    // Wait for the worker, watching the socket: a client whose socket
    // errors out mid-request trips the token so the worker is reclaimed
    // within one class admission. A half-close (read-side EOF) is
    // tolerated — one-shot clients that shut down their write side after
    // sending still get their response.
    let mut gone = false;
    let mut half_closed = false;
    let reply = loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(r) => break Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !gone {
                    match peer_state(read_half) {
                        PeerState::Open => {}
                        PeerState::HalfClosed => half_closed = true,
                        PeerState::Gone => {
                            gone = true;
                            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
                            cancel.cancel();
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break None,
        }
    };
    if gone {
        // Nobody to answer; the worker was reclaimed via the token.
        return false;
    }
    let Some(reply) = reply else {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
        return write_line(
            stream,
            error_response(id_ref, ErrorCode::Internal, "worker dropped the request"),
        );
    };
    let delivered = match reply.outcome {
        Ok(outcome) => {
            let mut result = outcome.result;
            let complete = outcome.termination.is_complete();
            if complete && use_cache {
                // The cache keeps the run itself, not an exact-size
                // clone: drop the spare capacity left by its growth.
                result.patterns.shrink_to_fit();
            }
            let run = Arc::new(result);
            if !complete {
                shared.counters.degraded.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
            } else if use_cache {
                shared
                    .cache
                    .insert(key, theta, Arc::clone(&run), outcome.termination.clone());
            }
            shared.counters.results_ok.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
            let cache_status = if use_cache {
                CacheStatus::Miss
            } else {
                CacheStatus::Bypass
            };
            write_line(
                stream,
                crate::protocol::result_response(
                    id_ref,
                    &run.patterns,
                    &outcome.termination,
                    run.min_support_count,
                    run.database_size,
                    cache_status,
                    reply.mine_ms,
                ),
            )
        }
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-15)
            write_line(stream, error_response(id_ref, ErrorCode::Internal, &e.to_string()))
        }
    };
    // A half-closed peer can send nothing more: close once answered.
    delivered && !half_closed
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        shared.in_flight.fetch_add(1, Ordering::AcqRel); // tsg-lint: ordering(ORD-17)
        let (reply, mined) = run_job(shared, &job);
        if mined {
            shared.record_mine_time(reply.mine_ms);
        }
        // Release the slot *before* handing over the reply: a client
        // must never observe its own response while the job is still
        // counted in_flight (stats and drain read that gauge).
        shared
            .tokens
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job.id);
        shared.in_flight.fetch_sub(1, Ordering::AcqRel); // tsg-lint: ordering(ORD-17)
        {
            let _unused = shared.drain_lock.lock().unwrap_or_else(|e| e.into_inner());
            shared.drain_cv.notify_all();
        }
        // The handler may have vanished (client gone + connection
        // closed); a failed send is fine.
        let _ = job.reply.send(reply);
    }
}

/// Runs one governed mine. The flag says whether the reply's timing
/// should feed the EWMA (actual mining work, not an instant
/// already-expired answer that would skew it).
fn run_job(shared: &Arc<Shared>, job: &Job) -> (JobReply, bool) {
    let start = Instant::now();
    let m = &job.req;
    // Queue wait counts against the deadline: a request whose deadline
    // passed while queued degrades gracefully to a truthful empty
    // prefix, without burning a worker on doomed mining.
    let mut budget = Budget::unlimited();
    if let Some(dl) = job.deadline {
        let remaining = dl.saturating_duration_since(start);
        if remaining.is_zero() {
            return (
                JobReply {
                    outcome: Ok(expired_outcome(shared, m.theta)),
                    mine_ms: 0.0,
                },
                false,
            );
        }
        budget = budget.deadline(remaining);
    }
    if let Some(p) = m.max_patterns {
        budget = budget.max_patterns(p);
    }
    if let Some(b) = m.max_memory_bytes {
        budget = budget.max_peak_bytes(b);
    }
    let govern = GovernOptions {
        cancel: Some(job.cancel.clone()),
        budget,
        ..GovernOptions::default()
    };
    let mut cfg = if m.baseline {
        TaxogramConfig::baseline(m.theta)
    } else {
        TaxogramConfig::with_threshold(m.theta)
    };
    cfg.max_edges = m.max_edges;
    let outcome = Taxogram::new(cfg).mine_governed(&shared.db, &shared.taxonomy, &govern);
    (
        JobReply {
            outcome,
            mine_ms: start.elapsed().as_secs_f64() * 1000.0,
        },
        true,
    )
}

/// The truthful outcome for a request whose deadline expired in the
/// queue: an empty (sound, zero-length prefix) result.
fn expired_outcome(shared: &Arc<Shared>, theta: f64) -> MiningOutcome {
    MiningOutcome {
        result: MiningResult {
            patterns: Vec::new(),
            stats: MiningStats::default(),
            min_support_count: shared.db.min_support_count(theta),
            database_size: shared.db.len(),
        },
        termination: Termination {
            reason: TerminationReason::DeadlineExceeded,
            classes_finished: 0,
            classes_abandoned: 0,
            frontier: Vec::new(),
        },
    }
}
