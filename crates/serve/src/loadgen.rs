//! The load-generator client: replay a suite of graphs against a running
//! daemon at a configurable request rate and report throughput and
//! latency percentiles.
//!
//! Arrival times are a seeded open-loop schedule: request *k* arrives at
//! the cumulative sum of gaps drawn uniformly from `[0.5, 1.5] / qps`
//! (xorshift64 from the seed), spread round-robin across `conns`
//! connections. Each connection is itself closed-loop — it blocks for
//! the response before sending its next assigned request — so a slow
//! daemon shows up as missed arrival deadlines and lower achieved
//! throughput, not as an unbounded in-flight pile.
//!
//! With `verify` set, every served schedule is compared byte-for-byte
//! against an in-process oracle computed through the same render path —
//! the e2e determinism contract checked at load, not just one request
//! at a time. Throughput and latency numbers are wall-clock and
//! machine-dependent: indicative only, never CI-diffed.

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dagsched_core::{registry, AlgoClass, Env};
use dagsched_graph::{binio, io::to_tgf, TaskGraph};
use dagsched_metrics::stats::percentile;

use crate::frame::{write_frame, FrameError, FrameReader};
use crate::proto::{
    self, encode_schedule_request, parse_response, render_schedule, GraphWire, Response,
};

/// What to replay and how hard.
#[derive(Debug, Clone)]
pub struct LoadgenParams {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Target request rate across all connections.
    pub qps: f64,
    /// Client connections (each is one thread).
    pub conns: usize,
    /// How many times to replay the whole (graph × algo) grid.
    pub repeat: usize,
    /// Seed for arrival jitter — same seed, same arrival schedule.
    pub seed: u64,
    /// Compare every response against an in-process oracle.
    pub verify: bool,
    /// Algorithm names to exercise (roster acronyms or `compose:` names).
    pub algos: Vec<String>,
    /// The graph suite.
    pub graphs: Vec<TaskGraph>,
    /// Send a `shutdown` request after the run.
    pub shutdown: bool,
}

impl Default for LoadgenParams {
    fn default() -> Self {
        LoadgenParams {
            addr: String::new(),
            qps: 50.0,
            conns: 2,
            repeat: 1,
            seed: 42,
            verify: false,
            algos: vec!["MCP".into()],
            graphs: Vec::new(),
            shutdown: false,
        }
    }
}

/// What a run produced.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    pub requests: u64,
    pub errors: u64,
    /// First few error descriptions, for diagnostics.
    pub error_detail: Vec<String>,
    /// Responses served from the daemon's schedule cache.
    pub cache_hits: u64,
    pub elapsed: Duration,
    pub throughput_rps: f64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

/// The platform spec loadgen pairs with an algorithm, by class: BNP and
/// UNC algorithms run on `bnp:8` (UNC ignores the bound), APN on a
/// 3-cube — the suite defaults of the bench harness.
pub fn platform_for(algo: &str) -> Result<&'static str, String> {
    let a = registry::lookup(algo).map_err(|e| e.to_string())?;
    Ok(match a.class() {
        AlgoClass::Bnp | AlgoClass::Unc => "bnp:8",
        AlgoClass::Apn => "hypercube:3",
    })
}

struct WorkItem {
    /// Offset from run start at which this request should be sent.
    at: Duration,
    graph_idx: usize,
    algo_idx: usize,
    wire: GraphWire,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Uniform in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Run the load against a daemon. Fails only on setup errors (bad algo
/// name, connect failure); per-request failures are counted in the
/// report instead.
pub fn run(params: &LoadgenParams) -> Result<LoadgenReport, String> {
    if params.graphs.is_empty() {
        return Err("loadgen needs at least one graph".into());
    }
    if params.algos.is_empty() {
        return Err("loadgen needs at least one algorithm".into());
    }
    if params.qps.is_nan() || params.qps <= 0.0 {
        return Err("qps must be positive".into());
    }
    let platforms: Vec<&'static str> = params
        .algos
        .iter()
        .map(|a| platform_for(a))
        .collect::<Result<_, _>>()?;

    // Pre-encode both wire forms of every graph once.
    let tgf: Vec<Vec<u8>> = params
        .graphs
        .iter()
        .map(|g| to_tgf(g).into_bytes())
        .collect();
    let bin: Vec<Vec<u8>> = params.graphs.iter().map(binio::to_bin).collect();

    // In-process oracle: the canonical schedule bytes per (graph, algo),
    // rendered through the exact same path the daemon uses.
    let oracle: HashMap<(usize, usize), String> = if params.verify {
        let mut m = HashMap::new();
        for (gi, g) in params.graphs.iter().enumerate() {
            for (ai, algo_name) in params.algos.iter().enumerate() {
                let algo = registry::lookup(algo_name).map_err(|e| e.to_string())?;
                let env = Env::parse_spec(platforms[ai])?;
                let out = algo
                    .schedule(g, &env)
                    .map_err(|e| format!("oracle {algo_name}: {e}"))?;
                let compact = out.schedule.compact_procs();
                m.insert(
                    (gi, ai),
                    render_schedule(algo.name(), &compact, g.num_tasks()),
                );
            }
        }
        m
    } else {
        HashMap::new()
    };
    let oracle = Arc::new(oracle);

    // Seeded open-loop arrival schedule, round-robin across connections.
    let mut rng = params.seed ^ 0x9E37_79B9_7F4A_7C15;
    if rng == 0 {
        rng = 0x2545_F491_4F6C_DD1D;
    }
    let mut per_conn: Vec<Vec<WorkItem>> = (0..params.conns.max(1)).map(|_| Vec::new()).collect();
    let mut at = Duration::ZERO;
    let mut k = 0usize;
    for rep in 0..params.repeat.max(1) {
        for gi in 0..params.graphs.len() {
            for ai in 0..params.algos.len() {
                at += Duration::from_secs_f64((0.5 + unit(&mut rng)) / params.qps);
                let wire = if (gi + rep) % 2 == 0 {
                    GraphWire::Tgf
                } else {
                    GraphWire::Bin
                };
                let slot = k % per_conn.len();
                per_conn[slot].push(WorkItem {
                    at,
                    graph_idx: gi,
                    algo_idx: ai,
                    wire,
                });
                k += 1;
            }
        }
    }

    let tgf = Arc::new(tgf);
    let bin = Arc::new(bin);
    let algos = Arc::new(params.algos.clone());
    let platforms = Arc::new(platforms);
    let errors = Arc::new(Mutex::new(Vec::<String>::new()));

    let start = Instant::now();
    let mut threads = Vec::new();
    for items in per_conn {
        let (addr, tgf, bin, algos, platforms, oracle, errors) = (
            params.addr.clone(),
            Arc::clone(&tgf),
            Arc::clone(&bin),
            Arc::clone(&algos),
            Arc::clone(&platforms),
            Arc::clone(&oracle),
            Arc::clone(&errors),
        );
        threads.push(std::thread::spawn(move || {
            conn_run(
                &addr, start, items, &tgf, &bin, &algos, &platforms, &oracle, &errors,
            )
        }));
    }

    let mut latencies = Vec::new();
    let mut requests = 0u64;
    let mut cache_hits = 0u64;
    for t in threads {
        let stats = t.join().map_err(|_| "loadgen thread panicked")?;
        requests += stats.requests;
        cache_hits += stats.cache_hits;
        latencies.extend(stats.latencies_us);
    }
    let elapsed = start.elapsed();

    if params.shutdown {
        shutdown_daemon(&params.addr)?;
    }

    let errs = errors.lock().unwrap();
    Ok(LoadgenReport {
        requests,
        errors: errs.len() as u64,
        error_detail: errs.iter().take(5).cloned().collect(),
        cache_hits,
        elapsed,
        throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(&latencies, 0.50).unwrap_or(0),
        p95_us: percentile(&latencies, 0.95).unwrap_or(0),
        p99_us: percentile(&latencies, 0.99).unwrap_or(0),
    })
}

struct ConnStats {
    requests: u64,
    cache_hits: u64,
    latencies_us: Vec<u64>,
}

#[allow(clippy::too_many_arguments)] // one call site; bundling adds nothing
fn conn_run(
    addr: &str,
    start: Instant,
    items: Vec<WorkItem>,
    tgf: &[Vec<u8>],
    bin: &[Vec<u8>],
    algos: &[String],
    platforms: &[&'static str],
    oracle: &HashMap<(usize, usize), String>,
    errors: &Mutex<Vec<String>>,
) -> ConnStats {
    let mut stats = ConnStats {
        requests: 0,
        cache_hits: 0,
        latencies_us: Vec::with_capacity(items.len()),
    };
    if items.is_empty() {
        return stats;
    }
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            errors.lock().unwrap().push(e);
            return stats;
        }
    };
    let mut reader = FrameReader::new();
    for item in items {
        if let Some(wait) = item.at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let body = match item.wire {
            GraphWire::Tgf => &tgf[item.graph_idx],
            GraphWire::Bin => &bin[item.graph_idx],
        };
        let req = encode_schedule_request(
            item.wire,
            platforms[item.algo_idx],
            &algos[item.algo_idx],
            body,
        );
        stats.requests += 1;
        match request_with_retry(&mut stream, &mut reader, &req) {
            Ok(Response::Ok {
                schedule,
                cache_hit,
                ..
            }) => {
                if cache_hit {
                    stats.cache_hits += 1;
                }
                stats
                    .latencies_us
                    .push(start.elapsed().saturating_sub(item.at).as_micros() as u64);
                if let Some(want) = oracle.get(&(item.graph_idx, item.algo_idx)) {
                    if &schedule != want {
                        errors.lock().unwrap().push(format!(
                            "byte mismatch: graph {} algo {}",
                            item.graph_idx, algos[item.algo_idx]
                        ));
                    }
                }
            }
            Ok(Response::Err { code, message, .. }) => {
                errors.lock().unwrap().push(format!("{code}: {message}"));
            }
            Ok(Response::Bye) => {
                errors.lock().unwrap().push("unexpected bye".into());
            }
            Err(e) => {
                errors.lock().unwrap().push(e.to_string());
                return stats; // connection is gone
            }
        }
    }
    stats
}

/// Send one request and read its response, honoring `E_QUEUE_FULL`
/// retry hints up to 5 times.
fn request_with_retry(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    req: &[u8],
) -> io::Result<Response> {
    for _ in 0..5 {
        write_frame(stream, req)?;
        let payload = read_one(stream, reader)?;
        let resp =
            parse_response(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if let Response::Err {
            ref code,
            retry_after_ms: Some(ms),
            ..
        } = resp
        {
            if code == proto::code::QUEUE_FULL {
                std::thread::sleep(Duration::from_millis(ms));
                continue;
            }
        }
        return Ok(resp);
    }
    Ok(Response::Err {
        code: proto::code::QUEUE_FULL.into(),
        message: "queue still full after retries".into(),
        retry_after_ms: None,
    })
}

/// Block until one full frame arrives (no read timeout is set on
/// loadgen sockets, so `Idle` only appears if the caller set one).
fn read_one(stream: &mut TcpStream, reader: &mut FrameReader) -> io::Result<Vec<u8>> {
    loop {
        match reader.poll(stream) {
            Ok(Some(p)) => return Ok(p),
            Ok(None) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ))
            }
            Err(FrameError::Idle { .. }) => continue,
            Err(FrameError::Truncated) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed mid-frame",
                ))
            }
            Err(FrameError::Oversize(n)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("oversize response frame ({n} bytes)"),
                ))
            }
            Err(FrameError::Io(e)) => return Err(e),
        }
    }
}

/// Connect with `TCP_NODELAY` set, so a request frame is sent as soon as
/// it is written instead of waiting on the daemon's delayed ACK.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set TCP_NODELAY on {addr}: {e}"))?;
    Ok(stream)
}

/// Open a fresh connection, send `shutdown`, and expect `bye`.
pub fn shutdown_daemon(addr: &str) -> Result<(), String> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, proto::SHUTDOWN_REQUEST).map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new();
    let payload = read_one(&mut stream, &mut reader).map_err(|e| e.to_string())?;
    match parse_response(&payload) {
        Ok(Response::Bye) => Ok(()),
        other => Err(format!("expected bye, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_jitter_is_reproducible_and_bounded() {
        let mut a = 7 ^ 0x9E37_79B9_7F4A_7C15;
        let mut b = 7 ^ 0x9E37_79B9_7F4A_7C15;
        for _ in 0..1000 {
            let ua = unit(&mut a);
            assert_eq!(ua, unit(&mut b));
            assert!((0.0..1.0).contains(&ua));
        }
    }

    #[test]
    fn platform_for_matches_algorithm_class() {
        assert_eq!(platform_for("MCP").unwrap(), "bnp:8");
        assert_eq!(platform_for("DSC").unwrap(), "bnp:8");
        assert_eq!(platform_for("BSA").unwrap(), "hypercube:3");
        assert!(platform_for("NOPE").is_err());
    }
}
