//! End-to-end tests of scheduling as a service: a real daemon on an
//! ephemeral port, a real TCP client, and the byte-identity contract —
//! served schedules equal in-process scheduling exactly, for every
//! roster algorithm, both wire formats, and the cache-hit path.

use std::net::TcpStream;
use std::process::{Command, Stdio};

use taskbench::core::{registry, Env};
use taskbench::graph::{binio, io::to_tgf, GraphBuilder, TaskGraph};
use taskbench::serve::frame::{write_frame, FrameError, FrameReader};
use taskbench::serve::loadgen;
use taskbench::serve::proto::{
    self, encode_schedule_request, parse_response, render_schedule, GraphWire, Response,
};
use taskbench::serve::server::{start, Config};
use taskbench::suites::rgnos;

fn suite_graph() -> TaskGraph {
    rgnos::generate(rgnos::RgnosParams::new(30, 1.0, 2, 42))
}

/// In-process oracle: the exact render path the daemon uses.
fn oracle(algo_name: &str, g: &TaskGraph, platform: &str) -> String {
    let algo = registry::lookup(algo_name).expect("roster algo");
    let env = Env::parse_spec(platform).expect("platform");
    let out = algo.schedule(g, &env).expect("schedules");
    render_schedule(algo.name(), &out.schedule.compact_procs(), g.num_tasks())
}

fn read_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Response {
    loop {
        match reader.poll(stream) {
            Ok(Some(p)) => return parse_response(&p).expect("parsable response"),
            Ok(None) => panic!("daemon closed the connection"),
            Err(FrameError::Idle { .. }) => continue,
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn request(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    wire: GraphWire,
    platform: &str,
    algo: &str,
    graph: &[u8],
) -> Response {
    let req = encode_schedule_request(wire, platform, algo, graph);
    write_frame(stream, &req).expect("send");
    read_response(stream, reader)
}

/// Every roster algorithm and a sample of `compose:` variants, over both
/// wire formats: the served schedule bytes equal the in-process render,
/// and a repeat of the same request (cache hit) returns identical bytes.
#[test]
fn served_schedules_are_byte_identical_for_the_whole_roster() {
    let g = suite_graph();
    let tgf = to_tgf(&g).into_bytes();
    let bin = binio::to_bin(&g);

    let handle = start(Config::default()).expect("bind");
    let addr = handle.addr().to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = FrameReader::new();

    let mut names: Vec<String> = registry::all().iter().map(|a| a.name().into()).collect();
    assert_eq!(names.len(), 15, "the full roster");
    // A sample of the composed-scheduler space, including one spelled in
    // lowercase with defaults elided — the canonical-name cache key must
    // fold those onto their preset twin.
    names.push("compose:PRIO=blevel,LIST=dynamic,SLOT=insert,SEL=ready".into());
    names.push("compose:PRIO=alap,LIST=static,SLOT=append,SEL=pair".into());
    names.push("compose:prio=blevel".into());

    for name in &names {
        let platform = loadgen::platform_for(name).expect("class resolves");
        let want = oracle(name, &g, platform);
        for wire in [GraphWire::Tgf, GraphWire::Bin] {
            let body = match wire {
                GraphWire::Tgf => &tgf,
                GraphWire::Bin => &bin,
            };
            match request(&mut stream, &mut reader, wire, platform, name, body) {
                Response::Ok { schedule, .. } => {
                    assert_eq!(
                        schedule, want,
                        "{name} over {wire:?} diverged from in-process"
                    );
                }
                other => panic!("{name} over {wire:?}: {other:?}"),
            }
        }
        // Third round trip: by now the entry is cached; bytes must not
        // change and the hit must be flagged.
        match request(
            &mut stream,
            &mut reader,
            GraphWire::Tgf,
            platform,
            name,
            &tgf,
        ) {
            Response::Ok {
                schedule,
                cache_hit,
                ..
            } => {
                assert_eq!(schedule, want, "{name} cache-hit bytes diverged");
                assert!(cache_hit, "{name} third request should hit the cache");
            }
            other => panic!("{name} cached: {other:?}"),
        }
    }
    drop(stream);
    handle.shutdown();
}

/// A `bnp:` platform is a processor count: the `MAX_PROCS` machine serves
/// BNP and UNC algorithms, and an APN algorithm takes a `bnp:` spec too;
/// all byte-identical to in-process.
#[test]
fn bnp_platforms_serve_every_class_byte_identically() {
    let g = suite_graph();
    let tgf = to_tgf(&g).into_bytes();
    let handle = start(Config::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr().to_string()).expect("connect");
    let mut reader = FrameReader::new();
    for (algo, platform) in [("MCP", "bnp:256"), ("DSC", "bnp:256"), ("MH", "bnp:8")] {
        match request(
            &mut stream,
            &mut reader,
            GraphWire::Tgf,
            platform,
            algo,
            &tgf,
        ) {
            Response::Ok { schedule, .. } => {
                assert_eq!(schedule, oracle(algo, &g, platform), "{algo} on {platform}");
            }
            other => panic!("{algo} on {platform}: {other:?}"),
        }
    }
    drop(stream);
    handle.shutdown();
}

/// Bad inputs come back as structured errors with stable codes — and the
/// same connection keeps working afterwards.
#[test]
fn errors_are_structured_and_do_not_kill_the_server() {
    let g = suite_graph();
    let tgf = to_tgf(&g).into_bytes();

    let handle = start(Config::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = FrameReader::new();

    let expect_err =
        |stream: &mut TcpStream, reader: &mut FrameReader, payload: &[u8], code: &str| {
            write_frame(stream, payload).expect("send");
            match read_response(stream, reader) {
                Response::Err { code: c, .. } => assert_eq!(c, code),
                other => panic!("expected {code}, got {other:?}"),
            }
        };

    // Malformed request grammar.
    expect_err(
        &mut stream,
        &mut reader,
        b"schedule xml bnp:8 MCP\n",
        proto::code::REQ_MALFORMED,
    );
    // Unknown algorithm — reuses the registry's UnknownAlgo code.
    let req = encode_schedule_request(GraphWire::Tgf, "bnp:8", "NOPE", &tgf);
    expect_err(&mut stream, &mut reader, &req, "E_ALGO_UNKNOWN");
    // Compose grammar failure is distinguishable from a plain miss.
    let req = encode_schedule_request(GraphWire::Tgf, "bnp:8", "compose:PRIO=bogus", &tgf);
    expect_err(&mut stream, &mut reader, &req, "E_ALGO_COMPOSE_PARSE");
    // Cyclic graph — the graph model's own code.
    let cyclic = b"task 0 1\ntask 1 1\nedge 0 1 1\nedge 1 0 1\n";
    let req = encode_schedule_request(GraphWire::Tgf, "bnp:8", "MCP", cyclic);
    expect_err(&mut stream, &mut reader, &req, "E_GRAPH_CYCLE");
    // Binary frame with trash bytes.
    let req = encode_schedule_request(GraphWire::Bin, "bnp:8", "MCP", b"not a frame");
    expect_err(&mut stream, &mut reader, &req, "E_GRAPH_BIN");
    // Bad platform spec.
    let req = encode_schedule_request(GraphWire::Tgf, "klein-bottle:4", "MCP", &tgf);
    expect_err(&mut stream, &mut reader, &req, proto::code::PLATFORM_BAD);

    // After six failures, the same connection still schedules fine.
    match request(
        &mut stream,
        &mut reader,
        GraphWire::Tgf,
        "bnp:8",
        "MCP",
        &tgf,
    ) {
        Response::Ok { schedule, .. } => {
            assert_eq!(schedule, oracle("MCP", &g, "bnp:8"));
        }
        other => panic!("healthy request after errors: {other:?}"),
    }

    // An oversize frame poisons only its own connection: the daemon
    // answers with E_FRAME_OVERSIZE and closes that socket…
    let mut bad = TcpStream::connect(handle.addr()).expect("connect");
    let mut bad_reader = FrameReader::new();
    use std::io::Write;
    bad.write_all(&(taskbench::serve::MAX_FRAME as u32 + 1).to_be_bytes())
        .expect("send prefix");
    match read_response(&mut bad, &mut bad_reader) {
        Response::Err { code, .. } => assert_eq!(code, proto::code::FRAME_OVERSIZE),
        other => panic!("oversize: {other:?}"),
    }
    // …while the original connection keeps serving.
    match request(
        &mut stream,
        &mut reader,
        GraphWire::Tgf,
        "bnp:8",
        "DSC",
        &tgf,
    ) {
        Response::Ok { .. } => {}
        other => panic!("server should survive an oversize frame: {other:?}"),
    }

    drop(stream);
    handle.shutdown();
}

/// The graph-formation cost bound over the wire: the `u64::MAX` chain is
/// refused in both wire formats for every roster algorithm, and a graph
/// just under the bound is served the bytes of an in-process schedule
/// that passes `Outcome::validate`.
#[test]
fn the_cost_bound_holds_over_the_wire_for_the_whole_roster() {
    let max = u64::MAX;
    let over_tgf =
        format!("task 0 {max}\ntask 1 {max}\ntask 2 {max}\nedge 0 1 {max}\nedge 1 2 {max}\n");
    // The same chain as a binary frame, written field by field: no
    // `TaskGraph` of it exists to encode.
    let mut over_bin = binio::MAGIC.to_vec();
    for word in [3u32, 2, 0] {
        over_bin.extend_from_slice(&word.to_le_bytes());
    }
    for _ in 0..3 {
        over_bin.extend_from_slice(&max.to_le_bytes());
        over_bin.extend_from_slice(&0u32.to_le_bytes());
    }
    for (src, dst) in [(0u32, 1u32), (1, 2)] {
        over_bin.extend_from_slice(&src.to_le_bytes());
        over_bin.extend_from_slice(&dst.to_le_bytes());
        over_bin.extend_from_slice(&max.to_le_bytes());
    }
    let (w, c) = ((1u64 << 60) - 1, (1u64 << 58) - 1);
    let mut b = GraphBuilder::named("under-the-bound");
    let t: Vec<_> = (0..3).map(|_| b.add_task(w)).collect();
    for (s, d) in [(0, 1), (0, 2), (1, 2)] {
        b.add_edge(t[s], t[d], c).unwrap();
    }
    let under = b.build().expect("~3.75·2^60 is under the bound");
    let under_tgf = to_tgf(&under).into_bytes();

    let handle = start(Config::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = FrameReader::new();
    for algo in registry::all() {
        let name = algo.name();
        let platform = loadgen::platform_for(name).expect("class resolves");
        for (wire, body) in [
            (GraphWire::Tgf, over_tgf.as_bytes()),
            (GraphWire::Bin, &over_bin[..]),
        ] {
            match request(&mut stream, &mut reader, wire, platform, name, body) {
                Response::Err { code, .. } => assert_eq!(code, "E_GRAPH_COST_OVERFLOW"),
                other => panic!("{name} over {wire:?}: {other:?}"),
            }
        }
        let out = algo
            .schedule(&under, &Env::parse_spec(platform).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.validate(&under)
            .unwrap_or_else(|e| panic!("{name}: invalid schedule under the bound: {e}"));
        let want = render_schedule(name, &out.schedule, under.num_tasks());
        match request(
            &mut stream,
            &mut reader,
            GraphWire::Tgf,
            platform,
            name,
            &under_tgf,
        ) {
            Response::Ok { schedule, .. } => assert_eq!(schedule, want, "{name}"),
            other => panic!("{name} under the bound: {other:?}"),
        }
    }
    drop(stream);
    handle.shutdown();
}

/// Requests already on the wire when `shutdown` arrives still get their
/// responses before the daemon exits.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let g = suite_graph();
    let tgf = to_tgf(&g).into_bytes();

    let handle = start(Config {
        workers: 1, // serialize workers so a backlog actually forms
        ..Config::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    // Pipeline five request frames in ONE write, so they are all in the
    // daemon's socket buffer before shutdown can possibly land.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let algos = ["MCP", "DSC", "ETF", "HLFET", "ISH"];
    let mut wire_bytes = Vec::new();
    for a in algos {
        write_frame(
            &mut wire_bytes,
            &encode_schedule_request(GraphWire::Tgf, "bnp:8", a, &tgf),
        )
        .expect("encode");
    }
    use std::io::Write;
    stream.write_all(&wire_bytes).expect("pipeline");
    stream.flush().expect("flush");

    // Shutdown from a second connection while those five are in flight.
    loadgen::shutdown_daemon(&addr).expect("daemon acknowledges shutdown");

    // Every pipelined request is still answered, correctly and in order.
    let mut reader = FrameReader::new();
    for a in algos {
        match read_response(&mut stream, &mut reader) {
            Response::Ok { schedule, .. } => {
                assert_eq!(
                    schedule,
                    oracle(a, &g, "bnp:8"),
                    "{a} answered wrong during drain"
                );
            }
            other => panic!("{a} during shutdown drain: {other:?}"),
        }
    }
    // And the daemon actually exits: wait() joins every thread.
    handle.wait();
}

/// The real binary: `taskbench serve` prints its address, `taskbench
/// loadgen --verify --shutdown` replays a suite against it with zero
/// errors and stops it — the CI smoke path, runnable locally.
#[test]
fn taskbench_serve_and_loadgen_round_trip() {
    use std::io::{BufRead, BufReader};

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_taskbench"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    let mut addr = String::new();
    BufReader::new(daemon.stdout.take().expect("piped"))
        .read_line(&mut addr)
        .expect("daemon prints its address");
    let addr = addr.trim().to_string();
    assert!(addr.contains(':'), "not an address: {addr:?}");

    let out = Command::new(env!("CARGO_BIN_EXE_taskbench"))
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--qps",
            "500",
            "--repeat",
            "2",
            "--seed",
            "7",
            "--algo",
            "MCP",
            "--algo",
            "DSC",
            "--verify",
            "--shutdown",
        ])
        .output()
        .expect("loadgen runs");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "loadgen failed: {report} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(report.contains("\"errors\": 0"), "{report}");
    // repeat=2 over a cached daemon: the second pass must hit.
    let hits: u64 = report
        .split("\"cache_hits\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("report has cache_hits");
    assert!(hits > 0, "repeated suite should hit the cache: {report}");

    let status = daemon.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon exit status {status:?}");
}

/// Cache keys hash structure, not labels: relabeled graphs share an
/// entry, and the served bytes still match the *first* computation.
#[test]
fn cache_keys_ignore_labels_but_not_structure() {
    let mut b1 = GraphBuilder::named("a");
    let x = b1.add_labeled_task(3, "alpha");
    let y = b1.add_labeled_task(4, "beta");
    b1.add_edge(x, y, 2).unwrap();
    let g1 = b1.build().unwrap();

    let mut b2 = GraphBuilder::named("b");
    let x = b2.add_labeled_task(3, "gamma");
    let y = b2.add_labeled_task(4, "delta");
    b2.add_edge(x, y, 2).unwrap();
    let g2 = b2.build().unwrap();

    let handle = start(Config::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = FrameReader::new();

    let r1 = request(
        &mut stream,
        &mut reader,
        GraphWire::Tgf,
        "bnp:2",
        "MCP",
        &to_tgf(&g1).into_bytes(),
    );
    let r2 = request(
        &mut stream,
        &mut reader,
        GraphWire::Tgf,
        "bnp:2",
        "MCP",
        &to_tgf(&g2).into_bytes(),
    );
    match (r1, r2) {
        (
            Response::Ok {
                schedule: s1,
                cache_hit: h1,
                ..
            },
            Response::Ok {
                schedule: s2,
                cache_hit: h2,
                ..
            },
        ) => {
            assert!(!h1, "first request computes");
            assert!(h2, "structurally identical graph hits the cache");
            assert_eq!(s1, s2, "hit returns the first computation's bytes");
        }
        other => panic!("{other:?}"),
    }
    drop(stream);
    handle.shutdown();
}
