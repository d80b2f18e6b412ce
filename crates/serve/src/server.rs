//! The daemon: an acceptor, and one thread per connection that reads its
//! frames, schedules them, and writes the replies itself.
//!
//! ```text
//! listener ──accept──▶ conn thread (one per connection)
//!                        frame → wire tier ──hit──────────────────▶ write reply
//!                          miss → parse → gate ──full──▶ E_QUEUE_FULL
//!                                          │ slot
//!                                          ▼
//!                          decode → structural tier → schedule ──▶ write reply
//! ```
//!
//! A connection thread first hashes the raw request payload and probes
//! the wire cache tier ([`crate::cache`]); a hit is written straight
//! back, with no decode, platform parse, registry lookup, structural
//! hash or wait for a slot. Everything else is parsed and, once the
//! thread holds a slot of the admission gate, decoded, looked up in the
//! structural tier, scheduled on a miss, and stored in both tiers. A
//! connection thread serializes its own requests: it answers one before
//! reading the next frame, which is what gives clients exactly-once,
//! in-order responses per connection.
//!
//! The gate is the backpressure: at most [`Config::workers`] requests
//! schedule at once, at most [`Config::queue_cap`] more wait for a slot,
//! and the next one is answered `E_QUEUE_FULL` at once.
//!
//! A scheduler that panics costs its request an `E_INTERNAL` reply, not
//! its connection: each request runs under `catch_unwind`, and its slot
//! is freed on the way out. A connection whose thread cannot be spawned
//! is answered `E_QUEUE_FULL` with a retry-after and closed; the acceptor
//! keeps accepting.
//!
//! ## Graceful shutdown
//!
//! A `shutdown` request (or [`Handle::shutdown`]) flips the flag; the
//! listener stops accepting, and connection threads finish the frame
//! they are on (with a bounded grace for a peer mid-frame) and close.
//! Each one finishes whatever it admitted, so in-flight requests always
//! get their response.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Requests that schedule at once, each on its connection thread;
    /// `0` = [`dagsched_ws::worker_count`] (which honors
    /// `TASKBENCH_THREADS`).
    pub workers: usize,
    /// Requests that may wait for a scheduling slot; the next one is
    /// refused with `E_QUEUE_FULL` — the backpressure knob.
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

/// Admission for scheduling work: `slots` requests run at once, `cap`
/// more wait for a slot, and the next is refused.
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
    slots: usize,
    cap: usize,
}

#[derive(Default)]
struct GateState {
    running: usize,
    waiting: usize,
}

/// A held [`Gate`] slot; dropping it, also while unwinding, frees it.
struct Slot<'a>(&'a Gate);

impl Gate {
    fn new(slots: usize, cap: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            slots,
            cap,
        }
    }

    fn state(&self) -> MutexGuard<'_, GateState> {
        // Nothing panics with the lock held, but a slot is freed while
        // unwinding, where a second panic would abort.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a slot, waiting for one behind at most `cap` others. Returns
    /// the slot and the admission depth (requests waiting for a slot,
    /// this one included), or `None` at once when `cap` already wait.
    fn enter(&self) -> Option<(Slot<'_>, usize)> {
        let mut s = self.state();
        if s.waiting == 0 && s.running < self.slots {
            s.running += 1;
            return Some((Slot(self), 1));
        }
        if s.waiting >= self.cap {
            return None;
        }
        s.waiting += 1;
        let depth = s.waiting;
        while s.running >= self.slots {
            s = self.freed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
        s.waiting -= 1;
        s.running += 1;
        Some((Slot(self), depth))
    }

    /// Requests waiting for a slot.
    fn waiting(&self) -> usize {
        self.state().waiting
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.state().running -= 1;
        self.0.freed.notify_one();
    }
}

struct Shared {
    shutdown: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
    gate: Gate,
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
    /// the daemon, then join every thread.
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
        // Each connection thread answers what it admitted before exiting.
        let conns = std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for c in conns {
            let _ = c.join();
        }
    }
}

/// Bind, spawn the acceptor, and return immediately.
pub fn start(cfg: Config) -> io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let slots = if cfg.workers == 0 {
        dagsched_ws::worker_count()
    } else {
        cfg.workers
    };
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        gate: Gate::new(slots.max(1), cfg.queue_cap.max(1)),
        cache: ShardedLru::new(cfg.cache_cap),
        wire_cache: ShardedLru::new(cfg.cache_cap),
        conns: Mutex::new(Vec::new()),
        addr,
    });

    let sh = Arc::clone(&shared);
    let acceptor = std::thread::Builder::new()
        .name("serve-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                if sh.shutdown.load(SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // A second handle answers the peer if the stream's thread
                // cannot start (the failed spawn drops the first).
                let refusal = stream.try_clone();
                let sh2 = Arc::clone(&sh);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || conn_loop(stream, &sh2));
                let Ok(h) = spawned else {
                    if let Ok(mut stream) = refusal {
                        refuse_connection(&mut stream);
                    }
                    continue;
                };
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
    })
}

/// Answer a connection that gets no thread: count the error and tell the
/// peer to retry (`E_QUEUE_FULL` with a retry-after), best effort. The
/// caller then drops the stream and keeps accepting.
fn refuse_connection(stream: &mut impl io::Write) {
    global().incr(Metric::ServeErrors);
    let e = ServeError::new(code::QUEUE_FULL, "no connection thread available")
        .retry_after(RETRY_AFTER_MS);
    let _ = write_frame(stream, &encode_err(&e));
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
                    let resp = encode_ok(&*cached, true, sh.gate.waiting());
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
                        let resp = admit(sh, key, wire, &platform, &algo, graph);
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

/// Schedule a request on this thread once the gate grants a slot. A full
/// gate is an immediate structured reject — backpressure, not latency.
fn admit(
    sh: &Shared,
    wire_key: WireKey,
    wire: GraphWire,
    platform: &str,
    algo: &str,
    graph: &[u8],
) -> Vec<u8> {
    let Some((_slot, depth)) = sh.gate.enter() else {
        global().incr(Metric::ServeQueueRejects);
        global().incr(Metric::ServeErrors);
        return encode_err(
            &ServeError::new(code::QUEUE_FULL, "request queue is full").retry_after(RETRY_AFTER_MS),
        );
    };
    global().incr(Metric::ServeRequests);
    global().hist(HistId::ServeQueueDepth).record(depth as u64);
    // A panicking scheduler fails its request, not the connection. The
    // panic unwinds out of decoding or scheduling, before either cache
    // insert and with no cache lock held, so it leaves no entry behind
    // and no lock poisoned.
    catch_unwind(AssertUnwindSafe(|| {
        process_job(sh, wire_key, wire, platform, algo, graph)
    }))
    .unwrap_or_else(|_| {
        Err(ServeError::new(
            code::INTERNAL,
            "the scheduler panicked on this request",
        ))
    })
    .unwrap_or_else(|e| {
        global().incr(Metric::ServeErrors);
        encode_err(&e)
    })
}

/// Decode → resolve → (structural cache | schedule) → render, then store
/// the rendered bytes under the request's wire key as well. Every
/// failure maps to a stable machine-readable code shared with the CLI;
/// failures are never cached.
fn process_job(
    sh: &Shared,
    wire_key: WireKey,
    wire: GraphWire,
    platform: &str,
    algo: &str,
    graph: &[u8],
) -> Result<Vec<u8>, ServeError> {
    let g = match wire {
        GraphWire::Tgf => {
            let text = std::str::from_utf8(graph).map_err(|_| {
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
            binio::from_bin(graph).map_err(|e| ServeError::new(e.code(), e.to_string()))?
        }
    };
    let env = Env::parse_spec(platform).map_err(|e| ServeError::new(code::PLATFORM_BAD, e))?;
    let algo = registry::lookup(algo).map_err(|e| ServeError::new(e.code(), e.to_string()))?;

    // Canonical name, not the request spelling: `mcp`, `MCP`, and the
    // compose grammar with defaults spelled out all share a cache entry.
    let key = CacheKey {
        graph: binio::structural_hash(&g),
        platform: platform.to_string(),
        algo: algo.name().to_string(),
    };
    if let Some(cached) = sh.cache.get(&key) {
        sh.wire_cache.insert(wire_key, Arc::clone(&cached));
        return Ok(encode_ok(&*cached, true, sh.gate.waiting()));
    }

    let outcome = algo
        .schedule(&g, &env)
        .map_err(|e| ServeError::new(e.code(), e.to_string()))?;
    let rendered =
        Arc::new(render_schedule(algo.name(), &outcome.schedule, g.num_tasks()).into_bytes());
    sh.cache.insert(key, Arc::clone(&rendered));
    sh.wire_cache.insert(wire_key, Arc::clone(&rendered));
    Ok(encode_ok(&*rendered, false, sh.gate.waiting()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_runs_then_queues_then_refuses_without_blocking() {
        let gate = Gate::new(1, 1);
        let (first, depth) = gate.enter().expect("a free slot runs at once");
        assert_eq!(depth, 1);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.enter().map(|(_slot, depth)| depth));
            while gate.waiting() == 0 {
                std::thread::yield_now();
            }
            assert!(gate.enter().is_none(), "a full wait line refuses at once");
            drop(first);
            assert_eq!(
                waiter.join().unwrap(),
                Some(1),
                "the freed slot admits the waiter"
            );
        });
        let s = gate.state();
        assert_eq!((s.running, s.waiting), (0, 0));
    }

    #[test]
    fn gate_frees_a_slot_whose_holder_panics() {
        let gate = Gate::new(1, 1);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _slot = gate.enter().expect("a free slot runs at once");
            panic!("a scheduler bug");
        }));
        assert!(unwound.is_err());
        assert_eq!(gate.state().running, 0, "unwinding freed the slot");
        assert!(gate.enter().is_some());
    }

    #[test]
    fn a_refused_connection_is_counted_and_told_to_retry() {
        let before = global().get(Metric::ServeErrors);
        let mut wire = Vec::new();
        refuse_connection(&mut wire);
        assert!(global().get(Metric::ServeErrors) > before);
        let resp = FrameReader::new()
            .poll(&mut wire.as_slice())
            .unwrap()
            .unwrap();
        let text = String::from_utf8(resp).unwrap();
        assert!(text.starts_with("err E_QUEUE_FULL"), "{text}");
        assert!(
            text.contains(&format!("retry_after_ms={RETRY_AFTER_MS}")),
            "{text}"
        );
        // A peer that already hung up costs nothing but the count.
        refuse_connection(&mut io::sink());
    }

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
