//! `serve_cold` and `serve_hot`: an in-process daemon
//! ([`dagsched_serve::server::start`]) driven by the benchmark's own
//! closed-loop clients over `serve::frame` + `serve::proto`.
//!
//! The loop is closed: one client connection per core (the daemon's
//! worker count), and each client sends only after its previous reply
//! arrived, as the daemon's callers do. Latency is measured at the
//! client, from writing the request frame to reading the whole response.
//! A refused or wrong response counts as failed and gives no latency
//! sample.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::time::Instant;

use dagsched_core::{registry, Env};
use dagsched_graph::{binio, io::to_tgf, TaskGraph};
use dagsched_obs::registry::global;
use dagsched_serve::cache::ShardedLru;
use dagsched_serve::frame::{write_frame, FrameError, FrameReader};
use dagsched_serve::proto::{
    encode_schedule_request, parse_response, render_schedule, GraphWire, Response,
};
use dagsched_serve::server::{self, Config, Handle};
use dagsched_suites::rgnos::{self, RgnosParams};

use crate::layers::{self, Op, Replay, SERVE_PATH};
use crate::spans::Tracer;
use crate::stats::{fnv, fold, mix, ratio};
use crate::{repeat_setup, Budget, E2e, Opts, Report, Workload};

/// serve_cold's (algorithm, platform) pairs: one BNP, one UNC and one
/// APN algorithm.
const COLD_ALGOS: [(&str, &str); 3] = [("MCP", "bnp:8"), ("DSC", "bnp:8"), ("MH", "hypercube:3")];
/// serve_hot's pairs.
const HOT_ALGOS: [(&str, &str); 2] = [("MCP", "bnp:8"), ("DSC", "bnp:8")];
const CCRS: [f64; 3] = [0.1, 1.0, 10.0];
const HOT_GRAPHS: usize = 6;
/// Daemon cache entries. The cache is full by the end of any run, so
/// memory does not grow with throughput.
const CACHE_CAP: usize = 128;
/// Distinct serve_cold requests, all built during set-up; request `k`
/// sends `pool[k % COLD_POOL]`. The daemon's LRU holds 16 entries per
/// shard and sees ~64 other keys per shard between two sends of one key
/// (the structural hash spreads them unevenly: 256 keys left one shard
/// with 16, so its keys were hit), so every timed request is a miss, as
/// a never-seen graph would be.
const COLD_POOL: u64 = 512;
/// The digest covers the first requests, which every run sends.
const DIGEST_PREFIX: u64 = 64;
/// serve_cold requests replayed layer by layer in a traced run.
const REPLAY_COLD: usize = 24;

/// One request as a client sends it.
pub struct Req {
    pub k: u64,
    pub graph: TaskGraph,
    pub wire: GraphWire,
    pub algo: &'static str,
    pub platform: &'static str,
    pub payload: Vec<u8>,
}

impl Req {
    fn new(k: u64, graph: TaskGraph, wire: GraphWire, pair: (&'static str, &'static str)) -> Req {
        let (algo, platform) = pair;
        let payload = encode_schedule_request(wire, platform, algo, &encode_body(&graph, wire));
        Req {
            k,
            graph,
            wire,
            algo,
            platform,
            payload,
        }
    }

    fn op(&self) -> Op<'_> {
        Op {
            id: self.k,
            graph: &self.graph,
            wire: self.wire,
            algo: self.algo,
            platform: self.platform.to_string(),
        }
    }
}

/// A graph's request body in one wire format.
pub fn encode_body(g: &TaskGraph, wire: GraphWire) -> Vec<u8> {
    match wire {
        GraphWire::Tgf => to_tgf(g).into_bytes(),
        GraphWire::Bin => binio::to_bin(g),
    }
}

/// serve_cold pool entry `k`: a graph with its own seed, so no two
/// entries share a cache key. Entries cycle through the three
/// algorithms, both wire formats, CCR 0.1/1/10 and 200–400 tasks.
pub fn cold_req(seed: u64, k: u64, tiny: bool) -> Req {
    let sizes = if tiny { [20, 30, 40] } else { [200, 300, 400] };
    let i = k as usize;
    let g = rgnos::generate(RgnosParams::new(
        sizes[(i / 18) % 3],
        CCRS[(i / 6) % 3],
        3,
        mix(seed, k),
    ));
    let wire = if k % 2 == 0 {
        GraphWire::Tgf
    } else {
        GraphWire::Bin
    };
    Req::new(k, g, wire, COLD_ALGOS[i % 3])
}

/// The serve_hot suite: six graphs × two algorithms = 12 keys, each in
/// both wire forms. Request `k` replays `reqs[k % 24]`, whose key is
/// `k % 12`.
fn hot_reqs(seed: u64, tiny: bool) -> Vec<Req> {
    let v = if tiny { 60 } else { 1000 };
    let graphs: Vec<TaskGraph> = (0..HOT_GRAPHS)
        .map(|i| {
            rgnos::generate(RgnosParams::new(
                v,
                CCRS[i % 3],
                3,
                mix(seed, (1 << 32) + i as u64),
            ))
        })
        .collect();
    let mut reqs = Vec::new();
    for wire in [GraphWire::Tgf, GraphWire::Bin] {
        for g in &graphs {
            for pair in HOT_ALGOS {
                reqs.push(Req::new(reqs.len() as u64, g.clone(), wire, pair));
            }
        }
    }
    reqs
}

/// The in-process oracle: the schedule block the daemon must serve,
/// rendered through the daemon's own render path.
pub fn oracle(g: &TaskGraph, algo: &str, platform: &str) -> Result<String, String> {
    let a = registry::lookup(algo).map_err(|e| e.to_string())?;
    let env = Env::parse_spec(platform)?;
    let out = a.schedule(g, &env).map_err(|e| e.to_string())?;
    Ok(render_schedule(
        a.name(),
        &out.schedule.compact_procs(),
        g.num_tasks(),
    ))
}

/// Block until one whole frame arrives.
pub fn read_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Result<Vec<u8>, String> {
    loop {
        match reader.poll(stream) {
            Ok(Some(p)) => return Ok(p),
            Ok(None) => return Err("peer closed the connection".into()),
            Err(FrameError::Idle { .. }) => continue,
            Err(e) => return Err(e.to_string()),
        }
    }
}

fn describe(r: &Result<Response, String>) -> String {
    match r {
        Ok(Response::Ok { .. }) => "served schedule differs from the in-process render".into(),
        Ok(Response::Err { code, message, .. }) => format!("{code}: {message}"),
        Ok(Response::Bye) => "unexpected bye".into(),
        Err(e) => e.clone(),
    }
}

enum Inputs {
    Cold(Vec<Req>),
    Hot { reqs: Vec<Req>, oracle: Vec<String> },
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    /// One untimed request.
    fn call(&mut self, payload: &[u8]) -> Result<Response, String> {
        write_frame(&mut self.stream, payload).map_err(|e| e.to_string())?;
        parse_response(&read_frame(&mut self.stream, &mut self.reader)?)
    }
}

struct Daemon {
    handle: Handle,
    conns: Vec<Conn>,
}

impl Daemon {
    fn start(clients: usize) -> Result<Daemon, String> {
        let handle = server::start(Config {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_cap: 64,
            cache_cap: CACHE_CAP,
        })
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let conns = (0..clients)
            .map(|_| {
                TcpStream::connect(handle.addr()).map(|stream| Conn {
                    stream,
                    reader: FrameReader::new(),
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
        Ok(Daemon { handle, conns })
    }

    /// Close the connections, then drain and join every daemon thread.
    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
    }
}

/// Bind the daemon, connect the clients and build the inputs (for
/// serve_hot: render the oracle and send every key once, untimed).
fn setup(opts: &Opts, clients: usize, e2e: &mut E2e) -> Result<(Daemon, Inputs), String> {
    let mut d = Daemon::start(clients)?;
    let inputs = match opts.workload {
        Workload::ServeCold => Inputs::Cold(
            (0..COLD_POOL)
                .map(|k| cold_req(opts.seed, k, opts.tiny))
                .collect(),
        ),
        _ => {
            let reqs = hot_reqs(opts.seed, opts.tiny);
            let keys = HOT_GRAPHS * HOT_ALGOS.len();
            let oracle = reqs[..keys]
                .iter()
                .map(|r| oracle(&r.graph, r.algo, r.platform))
                .collect::<Result<Vec<_>, _>>()?;
            for (r, want) in reqs[..keys].iter().zip(&oracle) {
                e2e.attempted += 1;
                match d.conns[0].call(&r.payload) {
                    Ok(Response::Ok { schedule, .. }) if &schedule == want => {}
                    other => e2e.fail(format!("priming request {}: {}", r.k, describe(&other))),
                }
            }
            Inputs::Hot { reqs, oracle }
        }
    };
    Ok((d, inputs))
}

/// What the clients saw: (request, FNV of its schedule block) for every
/// serve_cold request and the digest prefix of serve_hot, and cache hits.
#[derive(Default)]
struct Served {
    recs: Vec<(u64, u64)>,
    hits: u64,
}

struct ClientOut {
    e2e: E2e,
    served: Served,
    tracer: Tracer,
}

/// One closed-loop client: send, wait for the reply, check it, repeat.
#[allow(clippy::too_many_arguments)]
fn client(
    conn: &mut Conn,
    inputs: &Inputs,
    budget: Budget,
    next: &AtomicU64,
    done: &AtomicU64,
    start: Instant,
    mut t: Tracer,
) -> ClientOut {
    let mut e2e = E2e::default();
    let mut served = Served::default();
    while !budget.done(start.elapsed().as_secs_f64(), done.load(SeqCst) as usize) {
        let k = next.fetch_add(1, SeqCst);
        let req = match inputs {
            Inputs::Cold(reqs) | Inputs::Hot { reqs, .. } => {
                &reqs[(k % reqs.len() as u64) as usize]
            }
        };
        e2e.attempted += 1;
        let span = t.open(k, "client.request");
        let t0 = Instant::now();
        let w = t.open(k, "client.write_frame");
        let sent = write_frame(&mut conn.stream, &req.payload);
        t.close(w);
        let r = t.open(k, "client.read_frame");
        let got = sent
            .map_err(|e| e.to_string())
            .and_then(|()| read_frame(&mut conn.stream, &mut conn.reader));
        t.close(r);
        let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
        t.close(span);
        let lost = got.is_err();
        match got.and_then(|p| parse_response(&p)) {
            Ok(Response::Ok {
                schedule,
                cache_hit,
                ..
            }) => {
                if let Inputs::Hot { oracle, .. } = inputs {
                    if schedule != oracle[(req.k % oracle.len() as u64) as usize] {
                        e2e.fail(format!("request {k}: {}", describe(&Err(String::new()))));
                        continue;
                    }
                }
                served.hits += u64::from(cache_hit);
                if matches!(inputs, Inputs::Cold(_)) || k < DIGEST_PREFIX {
                    served.recs.push((k, fnv(schedule.as_bytes())));
                }
                e2e.ok(req.graph.num_tasks(), lat_ms);
                done.fetch_add(1, SeqCst);
            }
            other => {
                e2e.fail(format!("request {k}: {}", describe(&other)));
                if lost {
                    break;
                }
            }
        }
    }
    ClientOut {
        e2e,
        served,
        tracer: t,
    }
}

/// One timed pass of all clients; returns the next request index.
#[allow(clippy::too_many_arguments)]
fn pass(
    d: &mut Daemon,
    inputs: &Inputs,
    opts: &Opts,
    first_k: u64,
    tracer: &mut Tracer,
    e2e: &mut E2e,
    served: &mut Served,
) -> u64 {
    let budget = Budget::new(opts.pass_seconds());
    let next = AtomicU64::new(first_k);
    let done = AtomicU64::new(0);
    let start = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = d
            .conns
            .iter_mut()
            .map(|conn| {
                let (next, done, t) = (&next, &done, tracer.child());
                s.spawn(move || client(conn, inputs, budget, next, done, start, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    e2e.elapsed_s = start.elapsed().as_secs_f64();
    for o in outs {
        e2e.absorb(o.e2e);
        served.recs.extend(o.served.recs);
        served.hits += o.served.hits;
        tracer.absorb(o.tracer);
    }
    next.into_inner()
}

/// Byte-compare every served serve_cold schedule with the in-process
/// render of the same (graph, platform, algorithm), after the timed
/// passes: each pool entry that was sent is rendered once, in parallel.
fn verify_cold(pool: &[Req], recs: &[(u64, u64)], e2e: &mut E2e) {
    let mut sent: Vec<usize> = recs
        .iter()
        .map(|&(k, _)| (k % pool.len() as u64) as usize)
        .collect();
    sent.sort_unstable();
    sent.dedup();
    let want = dagsched_ws::parallel_map(sent.clone(), |i| {
        let r = &pool[i];
        oracle(&r.graph, r.algo, r.platform).map(|s| fnv(s.as_bytes()))
    });
    let mut want_of = vec![None; pool.len()];
    for (i, w) in sent.into_iter().zip(want) {
        want_of[i] = Some(w);
    }
    for &(k, hash) in recs {
        match &want_of[(k % pool.len() as u64) as usize] {
            Some(Ok(w)) if *w == hash => {}
            Some(Ok(_)) => e2e.fail(format!("request {k}: {}", describe(&Err(String::new())))),
            Some(Err(e)) => e2e.fail(format!("request {k}: in-process oracle failed: {e}")),
            None => unreachable!("every recorded request's pool entry was rendered"),
        }
    }
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let clients = dagsched_ws::worker_count();
    let mut e2e = E2e::default();
    let (mut d, inputs) = repeat_setup(
        opts,
        &mut e2e,
        |e| setup(opts, clients, e),
        |(d, _)| d.stop(),
    )?;
    let epoch = Instant::now();
    let mut served = Served::default();
    let next_k = pass(
        &mut d,
        &inputs,
        opts,
        0,
        &mut Tracer::new(epoch, false),
        &mut e2e,
        &mut served,
    );
    let mut traced_pass = None;
    if opts.trace {
        let mut traced = E2e::default();
        let mut spans = Tracer::new(epoch, true);
        let before = global().snapshot();
        pass(
            &mut d,
            &inputs,
            opts,
            next_k,
            &mut spans,
            &mut traced,
            &mut served,
        );
        let delta = global().snapshot().since(&before);
        traced_pass = Some((traced, spans, delta));
    }
    d.stop();

    let sent = served.recs.len();
    if let Inputs::Cold(pool) = &inputs {
        verify_cold(pool, &served.recs, &mut e2e);
    }
    served.recs.sort_unstable();
    e2e.digest = served
        .recs
        .iter()
        .filter(|&&(k, _)| k < DIGEST_PREFIX)
        .fold(0, |d, &(_, h)| fold(d, h));
    let answered = e2e.ops + traced_pass.as_ref().map_or(0, |t| t.0.ops);
    e2e.notes.push(format!(
        "cache hit share of served requests: {:.4} ({} of {answered}; {sent} schedules recorded)",
        ratio(served.hits as f64, answered as f64),
        served.hits
    ));

    let mut report = Report::new(e2e);
    if let Some((traced, spans, delta)) = traced_pass {
        let mut rp = Replay::new(epoch);
        let cache = ShardedLru::new(CACHE_CAP);
        let reqs: &[Req] = match &inputs {
            Inputs::Cold(pool) => &pool[..REPLAY_COLD],
            Inputs::Hot { reqs, .. } => reqs,
        };
        let ops: Vec<Op> = reqs.iter().map(Req::op).collect();
        if let Inputs::Hot { oracle, .. } = &inputs {
            rp.prefill(&ops[..oracle.len()], oracle, &cache);
        }
        rp.requests(&ops, &cache);
        rp.roster_probe(&reqs[0].graph);
        rp.bnb_probe(opts.seed);
        rp.queue_probe(opts.seed);
        layers::finish(opts, &mut report, traced, rp, spans, delta, &SERVE_PATH);
    }

    // A second burst of set-ups, once the first one's inputs are gone, so
    // `setup_s` averages two moments of the run.
    drop(inputs);
    let e2e = &mut report.e2e;
    let (again, _) = repeat_setup(opts, e2e, |e| setup(opts, clients, e), |(d, _)| d.stop())?;
    again.stop();
    if let Some(t) = &mut report.traced {
        t.setup_s.clone_from(&report.e2e.setup_s);
    }
    Ok(report)
}
