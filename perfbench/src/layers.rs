//! The per-layer replay of a traced run.
//!
//! A traced run replays its workload's inputs through each layer's
//! public entry points, in-process and on one thread, under spans the
//! benchmark records itself ([`crate::spans`]). Every span of one
//! replayed request (or sweep cell) carries that request's id. Counts
//! come from `obs::registry` snapshot deltas taken around each layer
//! call.
//!
//! Layers a workload does not reach are measured too, so every metric
//! is a measurement: on the workload's own graphs where they fit (frame
//! echo, decode, cache, the rest of the roster) and on small seeded
//! probes where they do not (branch-and-bound takes at most 64 tasks;
//! the daemon's queue only fills when more requests arrive at once than
//! it has workers, which no closed-loop workload with one client per
//! worker does).

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use dagsched_bench::Config;
use dagsched_core::{registry, AlgoClass, Env, Outcome, Scheduler};
use dagsched_graph::{binio, io::from_tgf, TaskGraph};
use dagsched_obs::registry::{global, HistId, Metric as Counter, Registry, Snapshot};
use dagsched_optimal::{solve, OptimalParams, OptimalResult};
use dagsched_serve::cache::{CacheKey, ShardedLru};
use dagsched_serve::frame::{write_frame, FrameReader};
use dagsched_serve::proto::{
    code, encode_ok, encode_schedule_request, parse_request, parse_response, render_schedule,
    GraphWire, Request, Response,
};
use dagsched_serve::server;
use dagsched_suites::rgbos::{self, RgbosParams};
use dagsched_suites::rgnos::{self, RgnosParams};

use crate::serve::{encode_body, oracle, read_frame};
use crate::spans::Tracer;
use crate::stats::{mix, percentile, ratio};
use crate::{E2e, Metric, Opts, Report};

/// Requests whose frames are echoed over loopback; each pays one
/// transport round trip.
pub const FRAME_OPS: usize = 24;
/// Span ids from here up belong to no workload request (the probes);
/// each probe call has its own id.
pub const PROBE_ID: u64 = u64::MAX - 64;
/// Node budget of the parallel branch-and-bound probe.
const PROBE_NODES: u64 = 20_000;
/// The queue probe: this many clients send at once, this many rounds, to
/// a daemon with one worker and room for two queued requests.
const QUEUE_CLIENTS: usize = 6;
const QUEUE_ROUNDS: usize = 4;
const QUEUE_ALGO: (&str, &str) = ("BSA", "hypercube:3");

/// One end-to-end operation: the span the timed pass records around it,
/// and the layer groups on its path, in path order.
pub struct Path {
    pub op: &'static str,
    pub layers: &'static [&'static [&'static str]],
}

/// A served request. Decode is one group across both wire formats.
pub const SERVE_PATH: Path = Path {
    op: "client.request",
    layers: &[
        &["serve.frame"],
        &["serve.proto.parse"],
        &["graph.io.decode", "graph.binio.decode"],
        &["graph.binio.hash"],
        &["serve.cache.get"],
        &["graph.levels"],
        &["core.schedule"],
        &["platform.compact"],
        &["serve.proto.render"],
        &["serve.cache.insert"],
    ],
};
/// One Table-6 cell (`bench::run_timed`).
pub const CELL_PATH: Path = Path {
    op: "bench.runner.cell",
    layers: &[
        &["graph.levels"],
        &["core.schedule"],
        &["platform.validate"],
    ],
};
/// One Table-2 cell.
pub const RGBOS_PATH: Path = Path {
    op: "bench.rgbos.cell",
    layers: &[
        &["optimal.bnb"],
        &["graph.levels"],
        &["core.schedule"],
        &["platform.validate"],
    ],
};

/// Index of a class in `[BNP, UNC, APN]` tallies.
pub fn class_index(c: AlgoClass) -> usize {
    match c {
        AlgoClass::Bnp => 0,
        AlgoClass::Unc => 1,
        AlgoClass::Apn => 2,
    }
}

/// One request-shaped operation: a graph as a client would send it.
pub struct Op<'g> {
    pub id: u64,
    pub graph: &'g TaskGraph,
    pub wire: GraphWire,
    pub algo: &'static str,
    pub platform: String,
}

#[derive(Default)]
struct Bnb {
    calls: u64,
    proven: u64,
    nodes: u64,
    pruned: u64,
    ns: u64,
}

/// A schedule the replay still has to validate.
type Produced = (TaskGraph, Outcome, &'static str);

/// Accumulates the per-layer replay.
pub struct Replay {
    pub tracer: Tracer,
    /// (ns, tasks) per span name, for the ns-per-task metrics.
    per_task: BTreeMap<&'static str, (u64, u64)>,
    /// (ns, tasks) per roster algorithm.
    algo: BTreeMap<&'static str, (u64, u64)>,
    /// Scheduler ns per class over the workload's own requests.
    class_ns: [u64; 3],
    core_tasks: u64,
    heap_ops: u64,
    cone_nodes: u64,
    apn_msgs: u64,
    apn_tasks: u64,
    bsa_trials: u64,
    bsa_cut: u64,
    bnb: Bnb,
    /// `ws` counter delta of the run's parallel section.
    pub ws: Option<Snapshot>,
    /// The queue probe's reject count and admission depth p50.
    queue_rejects: u64,
    queue_depth_p50: f64,
    frame_rtt_us: Vec<f64>,
    frame_bytes: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// What the metrics need from outside the replay.
pub struct Ctx<'a> {
    /// p50 of the traced pass's operation spans (`path.op`).
    pub op_p50_ms: f64,
    /// End-to-end latency p50 of the traced and of the untraced pass.
    pub traced_p50_ms: f64,
    pub untraced_p50_ms: f64,
    /// Registry delta holding the serve cache counters.
    pub serve: Snapshot,
    pub path: &'a Path,
}

impl Replay {
    pub fn new(epoch: Instant) -> Replay {
        Replay {
            tracer: Tracer::new(epoch, true),
            per_task: BTreeMap::new(),
            algo: BTreeMap::new(),
            class_ns: [0; 3],
            core_tasks: 0,
            heap_ops: 0,
            cone_nodes: 0,
            apn_msgs: 0,
            apn_tasks: 0,
            bsa_trials: 0,
            bsa_cut: 0,
            bnb: Bnb::default(),
            ws: None,
            queue_rejects: 0,
            queue_depth_p50: 0.0,
            frame_rtt_us: Vec::new(),
            frame_bytes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Time `f` as span `name` of request `id`, charging `tasks` to the
    /// layer's ns-per-task account.
    fn timed<R>(
        &mut self,
        id: u64,
        name: &'static str,
        tasks: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let (r, ns) = self.tracer.time(id, name, f);
        let acc = self.per_task.entry(name).or_default();
        acc.0 += ns;
        acc.1 += tasks as u64;
        (r, ns)
    }

    /// Schedule under a `core.schedule` span, with registry deltas taken
    /// around the call. `own` marks the workload's own requests, which
    /// make up the class shares.
    pub fn schedule(
        &mut self,
        id: u64,
        g: &TaskGraph,
        sched: &dyn Scheduler,
        env: &Env,
        own: bool,
    ) -> Option<Outcome> {
        let n = g.num_tasks();
        self.attempted += 1;
        let before = global().snapshot();
        let (out, ns) = self.timed(id, "core.schedule", n, || sched.schedule(g, env));
        let d = global().snapshot().since(&before);
        let acc = self.algo.entry(sched.name()).or_default();
        acc.0 += ns;
        acc.1 += n as u64;
        if own {
            self.class_ns[class_index(sched.class())] += ns;
        }
        self.core_tasks += n as u64;
        self.heap_ops += [
            Counter::HeapInserts,
            Counter::HeapPops,
            Counter::HeapRekeys,
            Counter::HeapRemoves,
        ]
        .iter()
        .map(|&c| d.get(c))
        .sum::<u64>();
        self.cone_nodes += d.get(Counter::EngineFwdNodes) + d.get(Counter::EngineBwdNodes);
        if sched.class() == AlgoClass::Apn {
            self.apn_msgs += d.get(Counter::ApnMsgsCommitted);
            self.apn_tasks += n as u64;
        }
        self.bsa_trials += d.get(Counter::BsaTrials);
        self.bsa_cut += d.get(Counter::BsaTrialsCut);
        match out {
            Ok(o) => Some(o),
            Err(e) => {
                self.fail(format!("{} on request {id}: {e}", sched.name()));
                None
            }
        }
    }

    /// `Outcome::validate` under a `platform.validate` span.
    fn validate(&mut self, id: u64, g: &TaskGraph, out: &Outcome, algo: &str) {
        let (r, _) = self.timed(id, "platform.validate", g.num_tasks(), || out.validate(g));
        if let Err(e) = r {
            self.fail(format!("{algo} on request {id}: invalid schedule: {e}"));
        }
    }

    /// Fill `cache` as the untimed first round fills the daemon's, under
    /// `serve.cache.insert` spans.
    pub fn prefill(&mut self, ops: &[Op], rendered: &[String], cache: &ShardedLru) {
        for (op, r) in ops.iter().zip(rendered) {
            let key = CacheKey {
                graph: binio::structural_hash(op.graph),
                platform: op.platform.clone(),
                algo: op.algo.to_string(),
            };
            let bytes = Arc::new(r.clone().into_bytes());
            self.timed(op.id, "serve.cache.insert", op.graph.num_tasks(), || {
                cache.insert(key, bytes)
            });
        }
    }

    /// Replay each operation through the daemon's request path, then echo
    /// the first [`FRAME_OPS`] request and response frames over loopback.
    pub fn requests(&mut self, ops: &[Op], cache: &ShardedLru) {
        let mut echo = Vec::new();
        for op in ops {
            let body = encode_body(op.graph, op.wire);
            let payload = encode_schedule_request(op.wire, &op.platform, op.algo, &body);
            let n = op.graph.num_tasks();
            let root = self.tracer.open(op.id, "serve.request");
            let r = self.request_path(op.id, n, &payload, cache);
            self.tracer.close(root);
            match r {
                Ok((resp, produced)) => {
                    if let Some((g, out, algo)) = produced {
                        self.validate(op.id, &g, &out, algo);
                    }
                    if echo.len() < FRAME_OPS {
                        echo.push((op.id, payload, resp));
                    }
                }
                Err(e) => self.fail(format!("request {}: {e}", op.id)),
            }
        }
        if let Err(e) = self.frame_echo(&echo) {
            self.fail(format!("frame echo: {e}"));
        }
    }

    /// parse → decode → hash → cache lookup → on a hit, render it; on a
    /// miss, levels → schedule → compact → render → cache insert — the
    /// steps of the daemon's `process_job`.
    fn request_path(
        &mut self,
        id: u64,
        n: usize,
        payload: &[u8],
        cache: &ShardedLru,
    ) -> Result<(Vec<u8>, Option<Produced>), String> {
        let (req, _) = self.timed(id, "serve.proto.parse", n, || parse_request(payload));
        let Request::Schedule {
            wire,
            platform,
            algo,
            graph,
        } = req.map_err(|e| e.message)?
        else {
            return Err("not a schedule request".into());
        };
        let (g, _) = match wire {
            GraphWire::Tgf => self.timed(id, "graph.io.decode", n, || {
                std::str::from_utf8(&graph)
                    .map_err(|e| e.to_string())
                    .and_then(|t| from_tgf(t).map_err(|e| e.to_string()))
            }),
            GraphWire::Bin => self.timed(id, "graph.binio.decode", n, || {
                binio::from_bin(&graph).map_err(|e| e.to_string())
            }),
        };
        let g = g?;
        let env = Env::parse_spec(&platform)?;
        let sched = registry::lookup(&algo).map_err(|e| e.to_string())?;
        let (hash, _) = self.timed(id, "graph.binio.hash", n, || binio::structural_hash(&g));
        let key = CacheKey {
            graph: hash,
            platform,
            algo: sched.name().to_string(),
        };
        let (hit, _) = self.timed(id, "serve.cache.get", n, || cache.get(&key));
        if let Some(bytes) = hit {
            let (resp, _) = self.timed(id, "serve.proto.render", n, || {
                std::str::from_utf8(&bytes)
                    .map(|s| encode_ok(s, true, 0))
                    .map_err(|e| e.to_string())
            });
            return Ok((resp?, None));
        }
        self.timed(id, "graph.levels", n, || {
            std::hint::black_box(g.levels().cp_length())
        });
        let out = self
            .schedule(id, &g, sched.as_ref(), &env, true)
            .ok_or("the scheduler refused the request")?;
        let (compact, _) = self.timed(id, "platform.compact", n, || out.schedule.compact_procs());
        let ((rendered, resp), _) = self.timed(id, "serve.proto.render", n, || {
            let r = render_schedule(sched.name(), &compact, n);
            let resp = encode_ok(&r, false, 0);
            (r, resp)
        });
        self.timed(id, "serve.cache.insert", n, || {
            cache.insert(key, Arc::new(rendered.into_bytes()))
        });
        Ok((resp, Some((g, out, sched.name()))))
    }

    /// Send each request frame over a loopback TCP connection (plain
    /// sockets, as the daemon and its clients use) to an echo thread that
    /// answers with the response frame; time each round trip.
    fn frame_echo(&mut self, pairs: &[(u64, Vec<u8>, Vec<u8>)]) -> Result<(), String> {
        if pairs.is_empty() {
            return Ok(());
        }
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let mut sock = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        std::thread::scope(|s| {
            let echo = s.spawn(move || -> Result<(), String> {
                let (mut peer, _) = listener.accept().map_err(|e| e.to_string())?;
                let mut reader = FrameReader::new();
                for (_, _, resp) in pairs {
                    read_frame(&mut peer, &mut reader)?;
                    write_frame(&mut peer, resp).map_err(|e| e.to_string())?;
                }
                Ok(())
            });
            let mut reader = FrameReader::new();
            let mut result = Ok(());
            for (id, req, resp) in pairs {
                let span = self.tracer.open(*id, "serve.frame");
                let got = write_frame(&mut sock, req)
                    .map_err(|e| e.to_string())
                    .and_then(|()| read_frame(&mut sock, &mut reader));
                let ns = self.tracer.close(span);
                match got {
                    Ok(p) if p.len() == resp.len() => {
                        self.frame_rtt_us.push(ns as f64 / 1e3);
                        self.frame_bytes.push((req.len() + resp.len() + 8) as f64);
                    }
                    Ok(_) => {
                        result = Err("echoed frame has the wrong length".to_string());
                        break;
                    }
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            drop(sock);
            let echoed = echo
                .join()
                .map_err(|_| "echo thread panicked".to_string())
                .and_then(|r| r);
            result.and(echoed)
        })
    }

    /// Run every roster algorithm the replay has not scheduled yet once
    /// on a fresh copy of `g` (levels, schedule, validate, compact), on
    /// Table 6's machines, so each layer metric is measured.
    pub fn roster_probe(&mut self, g: &TaskGraph) {
        let cfg = Config::quick(0);
        let n = g.num_tasks();
        let g = binio::from_bin(&binio::to_bin(g)).expect("a graph round-trips through binio");
        self.timed(PROBE_ID, "graph.levels", n, || {
            std::hint::black_box(g.levels().cp_length())
        });
        for (i, sched) in registry::all().into_iter().enumerate() {
            if self.algo.contains_key(sched.name()) {
                continue;
            }
            let id = PROBE_ID + 1 + i as u64;
            let env = match sched.class() {
                AlgoClass::Apn => Env::apn(cfg.apn_topology()),
                _ => Env::bnp(cfg.bnp_unlimited_procs(n)),
            };
            if let Some(out) = self.schedule(id, &g, sched.as_ref(), &env, false) {
                self.validate(id, &g, &out, sched.name());
                self.timed(id, "platform.compact", n, || out.schedule.compact_procs());
            }
        }
    }

    /// Solve under an `optimal.bnb` span.
    pub fn bnb(&mut self, id: u64, g: &TaskGraph, params: &OptimalParams) -> OptimalResult {
        let (r, ns) = self.tracer.time(id, "optimal.bnb", || solve(g, params));
        self.bnb.calls += 1;
        self.bnb.proven += u64::from(r.proven);
        self.bnb.nodes += r.nodes_expanded;
        self.bnb.pruned += r.pruned;
        self.bnb.ns += ns;
        r
    }

    /// The branch-and-bound and `ws` probe of workloads that reach
    /// neither: a parallel, budgeted solve of a small seeded RGBOS graph.
    pub fn bnb_probe(&mut self, seed: u64) {
        let g = rgbos::generate(RgbosParams {
            nodes: 24,
            ccr: 1.0,
            seed: mix(seed, PROBE_ID),
        });
        let before = global().snapshot();
        let params = OptimalParams {
            procs: None,
            node_limit: PROBE_NODES,
            heuristic_incumbent: false,
            threads: None,
        };
        self.bnb(PROBE_ID, &g, &params);
        self.ws = Some(global().snapshot().since(&before));
    }

    /// The daemon's queue under overload: [`QUEUE_CLIENTS`] connections
    /// send one request each at the same moment to a daemon with one
    /// worker and a queue of two, [`QUEUE_ROUNDS`] times. Every reply must
    /// be the in-process schedule or `E_QUEUE_FULL`, and the rejects the
    /// clients saw must equal the daemon's `ServeQueueRejects` count.
    pub fn queue_probe(&mut self, seed: u64) {
        if let Err(e) = self.queue_rounds(seed) {
            self.fail(format!("queue probe: {e}"));
        }
    }

    fn queue_rounds(&mut self, seed: u64) -> Result<(), String> {
        let (algo, platform) = QUEUE_ALGO;
        let g = rgnos::generate(RgnosParams::new(300, 1.0, 3, mix(seed, PROBE_ID + 1)));
        let want = oracle(&g, algo, platform)?;
        let payload = encode_schedule_request(
            GraphWire::Bin,
            platform,
            algo,
            &encode_body(&g, GraphWire::Bin),
        );
        global().hist(HistId::ServeQueueDepth).reset();
        let before = global().snapshot();
        let handle = server::start(server::Config {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 2,
            cache_cap: 0,
        })
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let addr = handle.addr();
        let mut seen = 0;
        let mut result = Ok(());
        for _ in 0..QUEUE_ROUNDS {
            let barrier = Barrier::new(QUEUE_CLIENTS);
            let replies: Vec<Result<Response, String>> = std::thread::scope(|s| {
                let hs: Vec<_> = (0..QUEUE_CLIENTS)
                    .map(|_| {
                        let (barrier, payload) = (&barrier, &payload);
                        s.spawn(move || {
                            let mut sock = TcpStream::connect(addr);
                            barrier.wait();
                            let sock = sock.as_mut().map_err(|e| e.to_string())?;
                            write_frame(sock, payload).map_err(|e| e.to_string())?;
                            parse_response(&read_frame(sock, &mut FrameReader::new())?)
                        })
                    })
                    .collect();
                hs.into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                    .collect()
            });
            for r in replies {
                self.attempted += 1;
                match r {
                    Ok(Response::Ok { schedule, .. }) if schedule == want => {}
                    Ok(Response::Err { code: c, .. }) if c == code::QUEUE_FULL => seen += 1,
                    Ok(Response::Ok { .. }) => {
                        self.fail("served schedule differs from the in-process render".into())
                    }
                    Ok(Response::Err { code, message, .. }) => {
                        self.fail(format!("{code}: {message}"))
                    }
                    Ok(Response::Bye) => self.fail("unexpected bye".into()),
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            if result.is_err() {
                break;
            }
        }
        handle.shutdown();
        let d = global().snapshot().since(&before);
        self.queue_rejects = d.get(Counter::ServeQueueRejects);
        self.queue_depth_p50 = global()
            .hist(HistId::ServeQueueDepth)
            .quantile_upper(0.5)
            .unwrap_or(0) as f64;
        self.attempted += 1;
        if self.queue_rejects != seen {
            self.fail(format!(
                "clients saw {seen} rejects, the daemon counted {}",
                self.queue_rejects
            ));
        }
        result
    }

    /// p50 over requests of the summed self time of `names`; requests
    /// that never ran the layer are left out, and so are the probes
    /// unless `probes`.
    fn layer_p50_ns(&self, names: &[&str], probes: bool) -> f64 {
        let mut per: BTreeMap<u64, u64> = BTreeMap::new();
        for name in names {
            for (id, ns) in self.tracer.self_by_id(name) {
                if probes || id < PROBE_ID {
                    *per.entry(id).or_default() += ns;
                }
            }
        }
        let xs: Vec<f64> = per.values().map(|&v| v as f64).collect();
        percentile(&xs, 0.5)
    }

    fn ns_per_task(&self, name: &str) -> f64 {
        self.per_task
            .get(name)
            .map_or(0.0, |&(ns, t)| ratio(ns as f64, t as f64))
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self, ctx: &Ctx) -> Vec<Metric> {
        let f = |x: u64| x as f64;
        let mut m = vec![
            Metric::new(
                "serve.frame.rtt_us",
                "us",
                percentile(&self.frame_rtt_us, 0.5),
            ),
            Metric::new(
                "serve.frame.bytes_per_req",
                "bytes",
                ratio(self.frame_bytes.iter().sum(), self.frame_bytes.len() as f64),
            ),
            Metric::new(
                "serve.proto.parse_ns",
                "ns",
                self.layer_p50_ns(&["serve.proto.parse"], false),
            ),
            Metric::new(
                "serve.proto.render_ns_per_task",
                "ns/task",
                self.ns_per_task("serve.proto.render"),
            ),
            Metric::new(
                "graph.io.decode_ns_per_task",
                "ns/task",
                self.ns_per_task("graph.io.decode"),
            ),
            Metric::new(
                "graph.binio.decode_ns_per_task",
                "ns/task",
                self.ns_per_task("graph.binio.decode"),
            ),
            Metric::new(
                "graph.binio.hash_ns_per_task",
                "ns/task",
                self.ns_per_task("graph.binio.hash"),
            ),
            Metric::new(
                "serve.cache.get_ns",
                "ns",
                self.layer_p50_ns(&["serve.cache.get"], false),
            ),
            Metric::new(
                "serve.cache.insert_ns",
                "ns",
                self.layer_p50_ns(&["serve.cache.insert"], false),
            ),
        ];
        let hits = f(ctx.serve.get(Counter::ServeCacheHits));
        let misses = f(ctx.serve.get(Counter::ServeCacheMisses));
        m.push(Metric::new(
            "serve.cache.hit_ratio",
            "ratio",
            ratio(hits, hits + misses),
        ));
        m.push(Metric::new(
            "serve.cache.evictions",
            "count",
            f(ctx.serve.get(Counter::ServeCacheEvictions)),
        ));
        m.push(Metric::new(
            "serve.queue.rejects",
            "count",
            f(self.queue_rejects),
        ));
        m.push(Metric::new(
            "serve.queue.depth_p50",
            "count",
            self.queue_depth_p50,
        ));
        m.push(Metric::new(
            "graph.levels.ns_per_task",
            "ns/task",
            self.ns_per_task("graph.levels"),
        ));
        for name in registry::names() {
            let v = self
                .algo
                .get(name)
                .map_or(0.0, |&(ns, t)| ratio(ns as f64, t as f64));
            m.push(Metric::new(
                format!("core.{name}.ns_per_task"),
                "ns/task",
                v,
            ));
        }
        let class_total = f(self.class_ns.iter().sum());
        for (i, c) in ["bnp", "unc", "apn"].iter().enumerate() {
            m.push(Metric::new(
                format!("core.class.{c}_share"),
                "ratio",
                ratio(f(self.class_ns[i]), class_total),
            ));
        }
        let tasks = f(self.core_tasks);
        m.push(Metric::new(
            "core.heap.ops_per_task",
            "ops/task",
            ratio(f(self.heap_ops), tasks),
        ));
        m.push(Metric::new(
            "core.engine.cone_nodes_per_task",
            "nodes/task",
            ratio(f(self.cone_nodes), tasks),
        ));
        m.push(Metric::new(
            "core.apn.msgs_per_task",
            "msgs/task",
            ratio(f(self.apn_msgs), f(self.apn_tasks)),
        ));
        m.push(Metric::new(
            "core.bsa.trials_cut_share",
            "ratio",
            ratio(f(self.bsa_cut), f(self.bsa_trials)),
        ));
        m.push(Metric::new(
            "platform.validate_ns_per_task",
            "ns/task",
            self.ns_per_task("platform.validate"),
        ));
        m.push(Metric::new(
            "platform.compact_ns_per_task",
            "ns/task",
            self.ns_per_task("platform.compact"),
        ));
        let b = &self.bnb;
        let core_ns: u64 = self.algo.values().map(|a| a.0).sum();
        m.push(Metric::new(
            "optimal.bnb.nodes_expanded",
            "count",
            f(b.nodes),
        ));
        m.push(Metric::new(
            "optimal.bnb.pruned_share",
            "ratio",
            ratio(f(b.pruned), f(b.nodes + b.pruned)),
        ));
        m.push(Metric::new(
            "optimal.bnb.ns_per_node",
            "ns/node",
            ratio(f(b.ns), f(b.nodes)),
        ));
        m.push(Metric::new(
            "optimal.bnb.proven_share",
            "ratio",
            ratio(f(b.proven), f(b.calls)),
        ));
        m.push(Metric::new(
            "optimal.bnb.wall_share",
            "ratio",
            ratio(f(b.ns), f(b.ns + core_ns)),
        ));
        let ws = self
            .ws
            .clone()
            .unwrap_or_else(|| Registry::new().snapshot());
        m.push(Metric::new("ws.jobs", "count", f(ws.get(Counter::WsJobs))));
        m.push(Metric::new(
            "ws.steal_hit_ratio",
            "ratio",
            ratio(
                f(ws.get(Counter::WsStealHits)),
                f(ws.get(Counter::WsStealAttempts)),
            ),
        ));
        m.push(Metric::new(
            "ws.parks",
            "count",
            f(ws.get(Counter::WsParks)),
        ));
        m.push(Metric::new(
            "bench.runner.cell_us_p50",
            "us",
            self.layer_p50_ns(&["core.schedule", "platform.validate"], true) / 1e3,
        ));
        m.push(Metric::new(
            "serve.unexplained_us",
            "us",
            ctx.op_p50_ms * 1e3 - self.path_us(ctx).iter().map(|p| p.1).sum::<f64>(),
        ));
        m.push(Metric::new(
            "trace.p50_overhead_ratio",
            "ratio",
            ratio(ctx.traced_p50_ms, ctx.untraced_p50_ms),
        ));
        m
    }

    /// p50 of each layer group on the operation's path, in microseconds.
    fn path_us(&self, ctx: &Ctx) -> Vec<(String, f64)> {
        ctx.path
            .layers
            .iter()
            .map(|names| (names.join("|"), self.layer_p50_ns(names, false) / 1e3))
            .collect()
    }

    /// The attribution table: each path layer's p50 against the p50 of
    /// the operation it is part of, and what is left unexplained.
    pub fn attribution(&self, ctx: &Ctx) -> Vec<String> {
        let e2e_us = ctx.op_p50_ms * 1e3;
        let mut lines = vec![format!(
            "layer p50 against the {} p50 of {e2e_us:.1} us (traced pass):",
            ctx.path.op
        )];
        let mut sum = 0.0;
        for (name, us) in self.path_us(ctx) {
            sum += us;
            lines.push(format!(
                "  {name:<36} {us:>12.1} us {:>7.1}%",
                100.0 * ratio(us, e2e_us)
            ));
        }
        lines.push(format!(
            "  {:<36} {:>12.1} us {:>7.1}%",
            "unexplained",
            e2e_us - sum,
            100.0 * ratio(e2e_us - sum, e2e_us)
        ));
        lines
    }
}

/// Complete a traced run's report: per-layer metrics, the attribution
/// table, the replay's checks, and the spans file.
#[allow(clippy::too_many_arguments)]
pub fn finish(
    opts: &Opts,
    report: &mut Report,
    traced: E2e,
    mut rp: Replay,
    pass_spans: Tracer,
    serve: Snapshot,
    path: &Path,
) {
    let op_ms: Vec<f64> = pass_spans
        .recs()
        .iter()
        .filter(|r| r.name == path.op)
        .map(|r| r.dur_ns() as f64 / 1e6)
        .collect();
    let ctx = Ctx {
        op_p50_ms: percentile(&op_ms, 0.5),
        traced_p50_ms: percentile(&traced.lat_ms, 0.5),
        untraced_p50_ms: percentile(&report.e2e.lat_ms, 0.5),
        serve,
        path,
    };
    report.metrics = rp.metrics(&ctx);
    report.lines.extend(rp.attribution(&ctx));
    report.replay_attempted = rp.attempted;
    report.replay_failed = rp.failed;
    report
        .lines
        .extend(rp.failures.iter().map(|f| format!("FAILED (replay): {f}")));
    report.traced = Some(E2e {
        setup_s: report.e2e.setup_s.clone(),
        ..traced
    });
    rp.tracer.absorb(pass_spans);
    let file = opts.spans_path();
    report.lines.push(match rp.tracer.write_jsonl(&file) {
        Ok(()) => format!(
            "spans: {} ({} records)",
            file.display(),
            rp.tracer.recs().len()
        ),
        Err(e) => format!("spans not written to {}: {e}", file.display()),
    });
}
