//! The two cache tiers, observed from outside the daemon: the replies
//! and the daemon's own registry counters. A replay of identical request
//! bytes is answered from the wire tier; a payload that respells the same
//! (graph, platform, algorithm) misses the wire tier and hits the
//! structural one; failures are never cached in either.
//!
//! This file is its own test binary so the global registry deltas belong
//! to the daemon under test; `SERIAL` keeps its cases from overlapping,
//! and each case reads its deltas after `shutdown` has joined every
//! daemon thread, so they are exact.

use std::net::TcpStream;
use std::sync::Mutex;

use dagsched_core::{registry, Env};
use dagsched_graph::{binio, io::to_tgf, GraphBuilder, TaskGraph, TaskId};
use dagsched_obs::registry::{global, HistId, Metric, Snapshot};
use dagsched_serve::frame::{write_frame, FrameError, FrameReader};
use dagsched_serve::proto::{code, encode_schedule_request, parse_response, GraphWire, Response};
use dagsched_serve::server::{start, Config, Handle};

static SERIAL: Mutex<()> = Mutex::new(());

/// A five-task diamond whose first weight is `w0`; `tag` relabels every
/// task without changing the structure.
fn diamond(w0: u64, tag: &str) -> TaskGraph {
    let mut b = GraphBuilder::named(format!("diamond-{tag}"));
    let t: Vec<TaskId> = [w0, 4, 5, 6, 2]
        .iter()
        .enumerate()
        .map(|(i, &w)| b.add_labeled_task(w, format!("{tag}{i}")))
        .collect();
    for (s, d, c) in [
        (0, 1, 3),
        (0, 2, 8),
        (0, 3, 1),
        (1, 4, 2),
        (2, 4, 7),
        (3, 4, 4),
    ] {
        b.add_edge(t[s], t[d], c).unwrap();
    }
    b.build().unwrap()
}

fn tgf(g: &TaskGraph) -> Vec<u8> {
    to_tgf(g).into_bytes()
}

/// A daemon, one client connection, and the registry state at start.
struct Probe {
    handle: Handle,
    stream: TcpStream,
    reader: FrameReader,
    before: Snapshot,
    queued_before: u64,
}

/// What the daemon counted between [`Probe::new`] and [`Probe::finish`].
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    requests: u64,
    hits: u64,
    wire_hits: u64,
    misses: u64,
    /// Requests admitted to a scheduling slot.
    queued: u64,
}

impl Probe {
    fn new(workers: usize) -> Probe {
        let handle = start(Config {
            workers,
            ..Config::default()
        })
        .expect("bind");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        Probe {
            handle,
            stream,
            reader: FrameReader::new(),
            before: global().snapshot(),
            queued_before: global().hist(HistId::ServeQueueDepth).count(),
        }
    }

    fn send(&mut self, payload: &[u8]) -> Response {
        write_frame(&mut self.stream, payload).expect("send");
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(Some(p)) => return parse_response(&p).expect("parsable response"),
                Ok(None) => panic!("daemon closed the connection"),
                Err(FrameError::Idle { .. }) => continue,
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    /// Send a request that must succeed; returns (schedule bytes, hit).
    fn ok(&mut self, payload: &[u8]) -> (String, bool) {
        match self.send(payload) {
            Response::Ok {
                schedule,
                cache_hit,
                ..
            } => (schedule, cache_hit),
            other => panic!("expected ok, got {other:?}"),
        }
    }

    fn err(&mut self, payload: &[u8]) -> String {
        match self.send(payload) {
            Response::Err { code, .. } => code,
            other => panic!("expected err, got {other:?}"),
        }
    }

    /// Shut the daemon down (joining its threads) and read its counters.
    fn finish(self) -> Counts {
        drop(self.stream);
        self.handle.shutdown();
        let d = global().snapshot().since(&self.before);
        Counts {
            requests: d.get(Metric::ServeRequests),
            hits: d.get(Metric::ServeCacheHits),
            wire_hits: d.get(Metric::ServeCacheWireHits),
            misses: d.get(Metric::ServeCacheMisses),
            queued: global().hist(HistId::ServeQueueDepth).count() - self.queued_before,
        }
    }
}

#[test]
fn replays_of_identical_bytes_are_wire_hits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: u64 = 6;
    let mut p = Probe::new(2);
    let payload = encode_schedule_request(GraphWire::Tgf, "bnp:2", "MCP", &tgf(&diamond(3, "t")));
    let (first, hit) = p.ok(&payload);
    assert!(!hit, "the first request computes");
    for i in 1..N {
        let (again, hit) = p.ok(&payload);
        assert!(hit, "replay {i} is flagged as a hit");
        assert_eq!(again, first, "replay {i} returns the first bytes");
    }
    let c = p.finish();
    assert_eq!(
        c,
        Counts {
            requests: N,
            hits: N - 1,
            wire_hits: N - 1,
            misses: 1,
            queued: 1,
        },
        "N replays: one structural miss, N - 1 wire hits that never take a slot"
    );
}

#[test]
fn respellings_miss_the_wire_tier_and_hit_the_structural_tier() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = diamond(3, "t");
    let base = encode_schedule_request(GraphWire::Tgf, "bnp:2", "MCP", &tgf(&g));
    let respellings = [
        (
            "lowercase algorithm",
            encode_schedule_request(GraphWire::Tgf, "bnp:2", "mcp", &tgf(&g)),
        ),
        (
            "binary wire tag",
            encode_schedule_request(GraphWire::Bin, "bnp:2", "MCP", &binio::to_bin(&g)),
        ),
        (
            "relabeled tasks",
            encode_schedule_request(GraphWire::Tgf, "bnp:2", "MCP", &tgf(&diamond(3, "u"))),
        ),
    ];
    let mut p = Probe::new(2);
    let (want, hit) = p.ok(&base);
    assert!(!hit);
    for (what, payload) in &respellings {
        assert_ne!(payload, &base, "{what}: a different payload");
        let (got, hit) = p.ok(payload);
        assert!(hit, "{what}: the structural tier answers");
        assert_eq!(got, want, "{what}: the first computation's bytes");
    }
    // Each respelling is now a wire entry of its own.
    for (what, payload) in &respellings {
        assert_eq!(p.ok(payload), (want.clone(), true), "{what}: replay");
    }
    let n = respellings.len() as u64;
    assert_eq!(
        p.finish(),
        Counts {
            requests: 1 + 2 * n,
            hits: 2 * n,
            wire_hits: n,
            misses: 1,
            queued: 1 + n,
        }
    );
}

#[test]
fn a_one_digit_weight_change_misses_both_tiers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = encode_schedule_request(GraphWire::Tgf, "bnp:2", "MCP", &tgf(&diamond(3, "t")));
    let b = encode_schedule_request(GraphWire::Tgf, "bnp:2", "MCP", &tgf(&diamond(4, "t")));
    assert_eq!(a.len(), b.len(), "the payloads differ in one digit");
    let mut p = Probe::new(2);
    let (sa, hit_a) = p.ok(&a);
    let (sb, hit_b) = p.ok(&b);
    assert!(!hit_a && !hit_b, "both compute");
    assert_ne!(sa, sb, "a heavier entry task moves the schedule");
    assert_eq!(
        p.finish(),
        Counts {
            requests: 2,
            hits: 0,
            wire_hits: 0,
            misses: 2,
            queued: 2,
        }
    );
}

#[test]
fn failed_requests_are_never_cached() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let body = tgf(&diamond(3, "t"));
    // The oversize platforms would each abort the whole process on one
    // allocation if they were ever built.
    let oversize = [
        "bnp:1000000000000",
        "full:60000",
        "ring:3000000",
        "mesh:100000x100000",
        "hypercube:16",
    ]
    .map(|spec| {
        (
            code::PLATFORM_BAD,
            encode_schedule_request(GraphWire::Tgf, spec, "MCP", &body),
        )
    });
    let cases = [
        (
            code::PLATFORM_BAD,
            encode_schedule_request(GraphWire::Tgf, "klein-bottle:4", "MCP", &body),
        ),
        (
            "E_GRAPH_CYCLE",
            encode_schedule_request(
                GraphWire::Tgf,
                "bnp:2",
                "MCP",
                b"task 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\n",
            ),
        ),
        (
            "E_GRAPH_BIN",
            encode_schedule_request(GraphWire::Bin, "bnp:2", "MCP", b"not a frame"),
        ),
    ];
    let mut p = Probe::new(2);
    for (want, payload) in cases.iter().chain(&oversize) {
        assert_eq!(p.err(payload), *want, "first send");
        assert_eq!(
            p.err(payload),
            *want,
            "second send is not served from a cache"
        );
    }
    // The same daemon still serves a canary.
    let canary = encode_schedule_request(GraphWire::Tgf, "bnp:2", "MCP", &body);
    let (_, hit) = p.ok(&canary);
    assert!(!hit, "the canary computes");
    let n = 2 * (cases.len() + oversize.len()) as u64;
    assert_eq!(
        p.finish(),
        Counts {
            requests: n + 1,
            hits: 0,
            wire_hits: 0,
            misses: 1,
            queued: n + 1,
        },
        "every failure took a slot; none reached a cache lookup"
    );
}

/// A three-task chain whose weights and edge costs are all `u64::MAX`
/// would overflow a scheduler's arithmetic, so graph formation refuses
/// it: each such request ends in `E_GRAPH_COST_OVERFLOW` before any
/// cache lookup, and the daemon's one slot must come back after all of
/// them to serve a canary.
#[test]
fn an_overflowing_graph_fails_its_request_not_the_worker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Written by hand: the builder refuses this graph, so no `TaskGraph`
    // of it exists to serialize.
    let max = u64::MAX;
    let hostile =
        format!("task 0 {max}\ntask 1 {max}\ntask 2 {max}\nedge 0 1 {max}\nedge 1 2 {max}\n");
    let payload = encode_schedule_request(GraphWire::Tgf, "bnp:2", "MD", hostile.as_bytes());

    const WORKERS: usize = 1;
    let mut p = Probe::new(WORKERS);
    for _ in 0..WORKERS + 2 {
        assert_eq!(p.err(&payload), "E_GRAPH_COST_OVERFLOW");
    }
    let canary = diamond(3, "t");
    let (got, _) = p.ok(&encode_schedule_request(
        GraphWire::Tgf,
        "bnp:2",
        "MCP",
        &tgf(&canary),
    ));
    let algo = registry::lookup("MCP").unwrap();
    let want = algo
        .schedule(&canary, &Env::parse_spec("bnp:2").unwrap())
        .unwrap();
    let want = dagsched_serve::proto::render_schedule(
        algo.name(),
        &want.schedule.compact_procs(),
        canary.num_tasks(),
    );
    assert_eq!(got, want, "the canary is served correctly");
    let c = p.finish();
    assert_eq!(
        (c.hits, c.misses),
        (0, 1),
        "only the canary reached a cache lookup"
    );
}
