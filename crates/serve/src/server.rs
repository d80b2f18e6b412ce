//! The daemon: acceptor, per-connection readers, a bounded submission
//! queue, and a scheduling worker pool.
//!
//! Thread shape (deliberately tokio-shaped — each role maps onto a task
//! if an async runtime ever replaces the pool):
//!
//! ```text
//! listener ──accept──▶ conn thread (one per connection)
//!                        │  frame → wire tier ──hit──▶ write reply
//!                        │    miss → parse → try_push ──▶ bounded queue
//!                        ◀──────── reply mpsc ◀───────── worker pool
//! ```
//!
//! A connection thread first hashes the raw request payload and probes
//! the wire cache tier ([`crate::cache`]); a hit is written straight
//! back, with no decode, platform parse, registry lookup, structural
//! hash or queue push. Everything else is parsed and queued to a worker,
//! which decodes, probes the structural tier, schedules on a miss, and
//! stores the rendered bytes in both tiers. A connection thread
//! serializes its own requests: it blocks on the per-request reply
//! channel before reading the next frame, which is what gives clients
//! exactly-once, in-order responses per connection.
//!
//! A scheduler that panics costs its request an `E_INTERNAL` reply, not
//! its worker: each job runs under `catch_unwind`.
//!
//! ## Graceful shutdown
//!
//! A `shutdown` request (or [`Handle::shutdown`]) flips the flag; the
//! listener stops accepting, connection threads finish the frame they
//! are on (with a bounded grace for a peer mid-frame) and close, the
//! queue is closed *after* connection threads exit so every admitted
//! request still reaches a worker, and workers drain the queue before
//! joining. In-flight requests always get their response.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dagsched_core::{registry, Env};
use dagsched_graph::{binio, io::from_tgf, GraphError};
use dagsched_obs::registry::{global, HistId, Metric};

use crate::cache::{CacheKey, ShardedLru, WireKey};
use crate::frame::{write_frame, FrameError, FrameReader};
use crate::proto::{
    self, code, encode_err, encode_ok, parse_request, render_schedule, GraphWire, Request,
    ServeError,
};
use crate::queue::{Bounded, PushError};

/// How long a rejected request should wait before retrying.
pub const RETRY_AFTER_MS: u64 = 25;

/// Socket read timeout — the cadence at which idle connection threads
/// notice the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Idle polls granted to a peer caught mid-frame at shutdown (~2 s).
const MID_FRAME_GRACE: u32 = 40;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Scheduling workers; `0` = [`dagsched_ws::worker_count`] (which
    /// honors `TASKBENCH_THREADS`).
    pub workers: usize,
    /// Bounded queue capacity — the backpressure knob.
    pub queue_cap: usize,
    /// Schedule-cache entries per tier (`0` disables memoization).
    pub cache_cap: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_cap: 64,
            cache_cap: 1024,
        }
    }
}

struct Job {
    key: WireKey,
    wire: GraphWire,
    platform: String,
    algo: String,
    graph: Vec<u8>,
    reply: mpsc::Sender<Vec<u8>>,
}

struct Shared {
    shutdown: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
    queue: Bounded<Job>,
    cache: ShardedLru,
    wire_cache: ShardedLru<WireKey>,
    conns: Mutex<Vec<JoinHandle<()>>>,
    addr: SocketAddr,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.shutdown.store(true, SeqCst);
        *self.done.lock().unwrap() = true;
        self.done_cv.notify_all();
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`Handle::shutdown`] or send a `shutdown` request and
/// [`Handle::wait`].
pub struct Handle {
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Handle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Flip the shutdown flag and [`wait`](Handle::wait).
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Block until a `shutdown` request (or [`Handle::shutdown`]) stops
    /// the daemon, then drain and join every thread.
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        {
            let mut done = self.shared.done.lock().unwrap();
            while !*done {
                done = self.shared.done_cv.wait(done).unwrap();
            }
        }
        // Wake the blocking accept with a throwaway connection; the
        // listener sees the flag and exits.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(l) = self.listener.take() {
            let _ = l.join();
        }
        // Connection threads first (they may still be pushing work and
        // waiting on replies — workers are alive to serve them) …
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
        // … then close the queue so workers drain what was admitted and
        // exit.
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Bind, spawn the worker pool and acceptor, and return immediately.
pub fn start(cfg: Config) -> io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        queue: Bounded::new(cfg.queue_cap.max(1)),
        cache: ShardedLru::new(cfg.cache_cap),
        wire_cache: ShardedLru::new(cfg.cache_cap),
        conns: Mutex::new(Vec::new()),
        addr,
    });

    let n_workers = if cfg.workers == 0 {
        dagsched_ws::worker_count()
    } else {
        cfg.workers
    }
    .max(1);
    let workers = (0..n_workers)
        .map(|i| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&sh))
                .expect("spawn worker")
        })
        .collect();

    let sh = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if sh.shutdown.load(SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let sh2 = Arc::clone(&sh);
                let h = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || conn_loop(stream, &sh2))
                    .expect("spawn conn thread");
                // Drop the handles of connections that already closed, so
                // `conns` tracks open connections, not every one accepted.
                let mut conns = sh.conns.lock().unwrap();
                conns.retain(|c| !c.is_finished());
                conns.push(h);
            }
        })
        .expect("spawn acceptor");

    Ok(Handle {
        shared,
        listener: Some(acceptor),
        workers,
    })
}

/// Socket options for an accepted stream: the shutdown-poll read timeout,
/// and `TCP_NODELAY` so a response frame leaves as soon as it is written
/// instead of waiting on the client's delayed ACK.
fn tune(stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
}

/// One connection: read frames, answer wire-tier hits, admit the other
/// requests, relay responses.
fn conn_loop(mut stream: TcpStream, sh: &Shared) {
    tune(&stream);
    let mut reader = FrameReader::new();
    let mut grace = MID_FRAME_GRACE;
    loop {
        match reader.poll(&mut stream) {
            Ok(Some(payload)) => {
                grace = MID_FRAME_GRACE;
                let key = WireKey::of(&payload);
                if let Some(cached) = sh.wire_cache.get(&key) {
                    global().incr(Metric::ServeRequests);
                    let resp = encode_ok(&*cached, true, sh.queue.len());
                    if write_frame(&mut stream, &resp).is_err() {
                        return;
                    }
                    continue;
                }
                match parse_request(&payload) {
                    Ok(Request::Shutdown) => {
                        let _ = write_frame(&mut stream, proto::BYE);
                        sh.begin_shutdown();
                        // Keep serving frames the peer already sent; the
                        // next idle poll at a boundary ends the loop.
                    }
                    Ok(Request::Schedule {
                        wire,
                        platform,
                        algo,
                        graph,
                    }) => {
                        let resp = admit(sh, key, wire, platform, algo, graph);
                        if write_frame(&mut stream, &resp).is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        global().incr(Metric::ServeErrors);
                        if write_frame(&mut stream, &encode_err(&e)).is_err() {
                            return;
                        }
                    }
                }
            }
            // Clean EOF at a frame boundary: peer is done.
            Ok(None) => return,
            Err(FrameError::Oversize(n)) => {
                // The length prefix cannot be resynchronized past — tell
                // the peer, then drop the connection.
                global().incr(Metric::ServeErrors);
                let e = ServeError::new(
                    code::FRAME_OVERSIZE,
                    format!("frame of {n} bytes exceeds cap {}", crate::MAX_FRAME),
                );
                let _ = write_frame(&mut stream, &encode_err(&e));
                return;
            }
            Err(FrameError::Idle { mid_frame }) => {
                if sh.shutdown.load(SeqCst) {
                    if !mid_frame {
                        return;
                    }
                    grace -= 1;
                    if grace == 0 {
                        return;
                    }
                }
            }
            Err(FrameError::Truncated | FrameError::Io(_)) => return,
        }
    }
}

/// Try to enqueue a request and wait for its response bytes. A full
/// queue is an immediate structured reject — backpressure, not latency.
fn admit(
    sh: &Shared,
    key: WireKey,
    wire: GraphWire,
    platform: String,
    algo: String,
    graph: Vec<u8>,
) -> Vec<u8> {
    let (tx, rx) = mpsc::channel();
    let job = Job {
        key,
        wire,
        platform,
        algo,
        graph,
        reply: tx,
    };
    match sh.queue.try_push(job) {
        Ok(depth) => {
            global().incr(Metric::ServeRequests);
            global().hist(HistId::ServeQueueDepth).record(depth as u64);
            match rx.recv() {
                Ok(resp) => resp,
                Err(_) => {
                    global().incr(Metric::ServeErrors);
                    encode_err(&ServeError::new(
                        code::INTERNAL,
                        "worker dropped the request",
                    ))
                }
            }
        }
        Err(PushError::Full) => {
            global().incr(Metric::ServeQueueRejects);
            global().incr(Metric::ServeErrors);
            encode_err(
                &ServeError::new(code::QUEUE_FULL, "request queue is full")
                    .retry_after(RETRY_AFTER_MS),
            )
        }
        Err(PushError::Closed) => {
            global().incr(Metric::ServeErrors);
            encode_err(&ServeError::new(
                code::SHUTTING_DOWN,
                "daemon is shutting down",
            ))
        }
    }
}

fn worker_loop(sh: &Shared) {
    while let Some(job) = sh.queue.pop() {
        // A panicking scheduler fails its request, not the worker. The
        // panic unwinds out of decoding or scheduling, before either
        // cache insert and with no cache lock held, so it leaves no entry
        // behind and no lock poisoned.
        let result =
            catch_unwind(AssertUnwindSafe(|| process_job(sh, &job))).unwrap_or_else(|_| {
                Err(ServeError::new(
                    code::INTERNAL,
                    "the scheduler panicked on this request",
                ))
            });
        let resp = match result {
            Ok(bytes) => bytes,
            Err(e) => {
                global().incr(Metric::ServeErrors);
                encode_err(&e)
            }
        };
        // A send failure means the connection thread gave up; the
        // schedule (and its cache entry) is still valid work.
        let _ = job.reply.send(resp);
    }
}

/// Decode → resolve → (structural cache | schedule) → render, then store
/// the rendered bytes under the request's wire key as well. Every
/// failure maps to a stable machine-readable code shared with the CLI;
/// failures are never cached.
fn process_job(sh: &Shared, job: &Job) -> Result<Vec<u8>, ServeError> {
    let g = match job.wire {
        GraphWire::Tgf => {
            let text = std::str::from_utf8(&job.graph).map_err(|_| {
                ServeError::new(
                    GraphError::Parse {
                        line: 0,
                        reason: String::new(),
                    }
                    .code(),
                    "TGF body is not UTF-8",
                )
            })?;
            from_tgf(text).map_err(|e| ServeError::new(e.code(), e.to_string()))?
        }
        GraphWire::Bin => {
            binio::from_bin(&job.graph).map_err(|e| ServeError::new(e.code(), e.to_string()))?
        }
    };
    let env = Env::parse_spec(&job.platform).map_err(|e| ServeError::new(code::PLATFORM_BAD, e))?;
    let algo = registry::lookup(&job.algo).map_err(|e| ServeError::new(e.code(), e.to_string()))?;

    // Canonical name, not the request spelling: `mcp`, `MCP`, and the
    // compose grammar with defaults spelled out all share a cache entry.
    let key = CacheKey {
        graph: binio::structural_hash(&g),
        platform: job.platform.clone(),
        algo: algo.name().to_string(),
    };
    if let Some(cached) = sh.cache.get(&key) {
        sh.wire_cache.insert(job.key, Arc::clone(&cached));
        return Ok(encode_ok(&*cached, true, sh.queue.len()));
    }

    let outcome = algo
        .schedule(&g, &env)
        .map_err(|e| ServeError::new(e.code(), e.to_string()))?;
    let compact = outcome.schedule.compact_procs();
    let rendered = Arc::new(render_schedule(algo.name(), &compact, g.num_tasks()).into_bytes());
    sh.cache.insert(key, Arc::clone(&rendered));
    sh.wire_cache.insert(job.key, Arc::clone(&rendered));
    Ok(encode_ok(&*rendered, false, sh.queue.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_streams_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        tune(&stream);
        assert!(stream.nodelay().unwrap());
        assert!(stream.read_timeout().unwrap().is_some());
    }

    #[test]
    fn closed_connections_are_reaped() {
        let handle = start(Config {
            workers: 1,
            ..Config::default()
        })
        .unwrap();
        for _ in 0..64 {
            // A round trip proves the daemon accepted this connection
            // before the client closes it.
            let mut stream = TcpStream::connect(handle.addr()).unwrap();
            write_frame(&mut stream, b"bogus").unwrap();
            let resp = FrameReader::new().poll(&mut stream).unwrap().unwrap();
            assert!(resp.starts_with(b"err "));
        }
        let open = handle.shared.conns.lock().unwrap().len();
        assert!(open <= 8, "{open} connection handles kept after 64 closed");
        handle.shutdown();
    }
}
