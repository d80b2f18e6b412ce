//! Concurrency contracts: the daemon delivers exactly one in-order
//! response per request per connection, counting every backpressure
//! reject it sends, and the sharded LRU never serves bytes for the wrong
//! key — under real thread contention.

use std::net::TcpStream;
use std::sync::Arc;

use dagsched_graph::{binio, io::to_tgf, GraphBuilder, TaskGraph};
use dagsched_obs::registry::{global, Metric};
use dagsched_serve::frame::{write_frame, FrameError, FrameReader};
use dagsched_serve::proto::{self, encode_schedule_request, parse_response, GraphWire, Response};
use dagsched_serve::{CacheKey, Config, ShardedLru};

/// A chain graph whose weights depend on `tag`, so every tag has a
/// distinct makespan — responses from different requests are
/// distinguishable on the wire.
fn chain(tag: u64) -> TaskGraph {
    let mut b = GraphBuilder::named(format!("chain-{tag}"));
    let mut prev = None;
    for i in 0..4 {
        let t = b.add_task(1 + tag + i);
        if let Some(p) = prev {
            b.add_edge(p, t, 1).unwrap();
        }
        prev = Some(t);
    }
    b.build().unwrap()
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

/// N client threads × M sequential requests per connection: every request
/// gets exactly one response, in request order (checked by matching each
/// response's makespan against that request's expected graph), even with
/// one slot and a wait of two forcing `E_QUEUE_FULL` retries. The rejects
/// the clients retried through are exactly the ones the daemon counted.
#[test]
fn responses_are_exactly_once_and_in_request_order_per_connection() {
    let before = global().snapshot();
    let handle = dagsched_serve::server::start(Config {
        workers: 1,   // fewer slots than clients on any host
        queue_cap: 2, // tiny: force backpressure under 4 client threads
        cache_cap: 0, // every request recomputes — max scheduling pressure
        ..Config::default()
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    // TASKBENCH_STRESS amplifies client count for sanitizer runs (the
    // request count stays put so the expected-makespan table is bounded).
    let clients_n: u64 = 4 * dagsched_obs::env::stress_factor() as u64;
    const REQUESTS: u64 = 24;

    // Expected makespan per tag, from one in-process request each.
    let expect: Vec<u64> = (0..clients_n * REQUESTS)
        // A chain schedules serially on one processor (same-proc comm is
        // free), so its makespan is exactly the weight sum.
        .map(|tag| chain(tag).weights().iter().sum::<u64>())
        .collect();
    let expect = Arc::new(expect);

    let mut clients = Vec::new();
    for c in 0..clients_n {
        let addr = addr.clone();
        let expect = Arc::clone(&expect);
        clients.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            let mut reader = FrameReader::new();
            let mut rejects = 0;
            for r in 0..REQUESTS {
                let tag = c * REQUESTS + r;
                let g = chain(tag);
                let wire = if tag % 2 == 0 {
                    (GraphWire::Tgf, to_tgf(&g).into_bytes())
                } else {
                    (GraphWire::Bin, binio::to_bin(&g))
                };
                let req = encode_schedule_request(wire.0, "bnp:2", "MCP", &wire.1);
                // Retry through queue-full rejects; anything else is a bug.
                let resp = loop {
                    write_frame(&mut stream, &req).expect("send");
                    match read_response(&mut stream, &mut reader) {
                        Response::Err {
                            code,
                            retry_after_ms,
                            ..
                        } if code == proto::code::QUEUE_FULL => {
                            rejects += 1;
                            std::thread::sleep(std::time::Duration::from_millis(
                                retry_after_ms.unwrap_or(5),
                            ));
                        }
                        other => break other,
                    }
                };
                match resp {
                    Response::Ok { makespan, .. } => {
                        assert_eq!(
                            makespan, expect[tag as usize],
                            "client {c} request {r} got a response for the wrong request"
                        );
                    }
                    other => panic!("client {c} request {r}: {other:?}"),
                }
            }
            rejects
        }));
    }
    let rejects: u64 = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    handle.shutdown();
    assert_eq!(
        rejects,
        global()
            .snapshot()
            .since(&before)
            .get(Metric::ServeQueueRejects),
        "the clients retried through exactly the rejects the daemon counted"
    );
}

/// Hammer a small sharded LRU from many threads with overlapping keys.
/// Every hit must return exactly the bytes inserted for that key
/// (oracle: the value is derived from the key), across concurrent
/// insert/evict churn.
#[test]
fn cache_never_returns_wrong_key_bytes_under_concurrent_evict() {
    let cache = Arc::new(ShardedLru::new(16)); // 2 entries per shard — constant eviction
    let oracle = |graph: u64, algo: u64| -> Vec<u8> {
        format!("schedule for graph {graph} algo {algo}").into_bytes()
    };
    let key = |graph: u64, algo: u64| CacheKey {
        graph: [graph, graph.wrapping_mul(0x9E37_79B9)],
        platform: "bnp:8".into(),
        algo: format!("A{algo}"),
    };

    // TASKBENCH_STRESS amplifies thread count for sanitizer runs.
    let mut threads = Vec::new();
    for t in 0..8 * dagsched_obs::env::stress_factor() as u64 {
        let cache = Arc::clone(&cache);
        threads.push(std::thread::spawn(move || {
            let mut state = t + 1;
            for _ in 0..4000 {
                // xorshift over a keyspace of 64 keys — far above capacity.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let graph = state % 16;
                let algo = (state >> 8) % 4;
                let k = key(graph, algo);
                match cache.get(&k) {
                    Some(v) => assert_eq!(
                        *v,
                        oracle(graph, algo),
                        "cache returned another key's bytes"
                    ),
                    None => cache.insert(k, Arc::new(oracle(graph, algo))),
                }
            }
        }));
    }
    for h in threads {
        h.join().expect("cache thread");
    }
    assert!(cache.len() <= 16, "capacity respected");
}
