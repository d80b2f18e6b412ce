//! The request/response grammar inside a frame, and the structured error
//! codes the daemon shares with the CLI.
//!
//! ## Request payload
//!
//! ```text
//! schedule <tgf|bin> <platform> <algo…rest of line>\n<graph bytes>
//! shutdown
//! ```
//!
//! `<platform>` is an [`Env::parse_spec`] spec (`bnp:8`, `hypercube:3`,
//! `mesh:2x4`, …); `<algo>` is a roster acronym or a `compose:` grammar
//! name (it extends to the end of the header line). The graph bytes are
//! TGF text or a [`dagsched_graph::binio`] frame according to the wire
//! tag.
//!
//! ## Response payload
//!
//! ```text
//! ok <algo> makespan=<m> procs=<p>\n      ┐ "schedule bytes": byte-identical
//! task <id> <proc> <start> <finish>\n …   ┘ to in-process scheduling
//! end cache=<hit|miss> depth=<n>\n          per-request counters (excluded
//!                                           from the byte-identity contract)
//! err <CODE> [retry_after_ms=<n>]\n<message>\n
//! bye\n                                     (acknowledges `shutdown`)
//! ```
//!
//! Error codes come from one shared vocabulary: [`GraphError::code`] for
//! graph decode failures, [`dagsched_core::registry::UnknownAlgo::code`]
//! for algorithm misses, and the serve-level codes in [`code`]. Schedulers
//! never refuse a decoded graph on a parsed platform:
//! [`dagsched_core::SchedError`] has no variant, so its
//! [`code`](dagsched_core::SchedError::code) is mapped but never sent.
//! Clients branch on the code string, never on message text.

use dagsched_graph::TaskId;
use dagsched_platform::{ProcId, Schedule};

#[allow(unused_imports)] // doc links
use dagsched_core::Env;
#[allow(unused_imports)] // doc links
use dagsched_graph::GraphError;

/// Serve-level error codes (graph/algorithm/scheduler codes live on their
/// error types). Stable: tests pin every value.
pub mod code {
    /// Frame length prefix exceeded [`crate::MAX_FRAME`].
    pub const FRAME_OVERSIZE: &str = "E_FRAME_OVERSIZE";
    /// Request payload did not match the grammar.
    pub const REQ_MALFORMED: &str = "E_REQ_MALFORMED";
    /// Platform spec failed to parse.
    pub const PLATFORM_BAD: &str = "E_PLATFORM_BAD";
    /// Every scheduling slot is busy and the wait for one is full: retry
    /// after the carried `retry_after_ms`.
    pub const QUEUE_FULL: &str = "E_QUEUE_FULL";
    /// The daemon failed a request internally (a scheduler panicked).
    pub const INTERNAL: &str = "E_INTERNAL";
}

/// A structured protocol error: a stable machine-readable code, a human
/// message, and (for backpressure rejects) a retry hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    pub code: &'static str,
    pub message: String,
    pub retry_after_ms: Option<u64>,
}

impl ServeError {
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ServeError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    pub fn retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }
}

/// How the graph bytes of a request are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphWire {
    /// TGF text ([`dagsched_graph::io`]).
    Tgf,
    /// Compact binary frame ([`dagsched_graph::binio`]).
    Bin,
}

impl GraphWire {
    fn tag(self) -> &'static str {
        match self {
            GraphWire::Tgf => "tgf",
            GraphWire::Bin => "bin",
        }
    }
}

/// A parsed request; the graph bytes are borrowed from the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<'a> {
    Schedule {
        wire: GraphWire,
        platform: String,
        algo: String,
        graph: &'a [u8],
    },
    /// Ask the daemon to shut down gracefully (drain, then exit).
    Shutdown,
}

/// Encode a schedule request payload.
pub fn encode_schedule_request(
    wire: GraphWire,
    platform: &str,
    algo: &str,
    graph: &[u8],
) -> Vec<u8> {
    let mut out = format!("schedule {} {platform} {algo}\n", wire.tag()).into_bytes();
    out.extend_from_slice(graph);
    out
}

/// The `shutdown` control payload.
pub const SHUTDOWN_REQUEST: &[u8] = b"shutdown";

/// The `bye` response acknowledging a shutdown request.
pub const BYE: &[u8] = b"bye\n";

/// Parse a request payload.
pub fn parse_request(payload: &[u8]) -> Result<Request<'_>, ServeError> {
    if payload == SHUTDOWN_REQUEST {
        return Ok(Request::Shutdown);
    }
    let malformed = |why: &str| ServeError::new(code::REQ_MALFORMED, why);
    let nl = payload
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| malformed("missing header line"))?;
    let header =
        std::str::from_utf8(&payload[..nl]).map_err(|_| malformed("header line is not UTF-8"))?;
    let graph = &payload[nl + 1..];
    let mut toks = header.split_whitespace();
    match toks.next() {
        Some("schedule") => {}
        _ => {
            return Err(malformed(
                "header must start with `schedule` or be `shutdown`",
            ))
        }
    }
    let wire = match toks.next() {
        Some("tgf") => GraphWire::Tgf,
        Some("bin") => GraphWire::Bin,
        _ => return Err(malformed("wire tag must be `tgf` or `bin`")),
    };
    let platform = toks
        .next()
        .ok_or_else(|| malformed("missing platform spec"))?
        .to_string();
    // The algorithm name is the rest of the header line (it never
    // contains whitespace today, but the grammar reserves the room).
    let algo_start = header
        .find(&platform)
        .map(|i| i + platform.len())
        .unwrap_or(header.len());
    let algo = header[algo_start..].trim().to_string();
    if algo.is_empty() {
        return Err(malformed("missing algorithm name"));
    }
    Ok(Request::Schedule {
        wire,
        platform,
        algo,
        graph,
    })
}

/// Render a schedule into its canonical response block — the bytes the
/// byte-identity contract covers.
///
/// `sched` may leave processors empty (UNC algorithms run on one virtual
/// processor per task): the used processors are written as `P0..Pk` in id
/// order, the numbering [`Schedule::compact_procs`] gives them, so a
/// schedule and its compacted copy render to the same bytes.
pub fn render_schedule(algo: &str, sched: &Schedule, num_tasks: usize) -> String {
    let mut used = 0u32;
    let rank: Vec<u32> = (0..sched.num_procs() as u32)
        .map(|p| {
            let r = used;
            used += u32::from(!sched.timeline(ProcId(p)).is_empty());
            r
        })
        .collect();
    // One buffer for the whole block: a task line is at most ~70 bytes,
    // typically under 24.
    let mut out = Vec::with_capacity(64 + algo.len() + 24 * num_tasks);
    out.extend_from_slice(b"ok ");
    out.extend_from_slice(algo.as_bytes());
    out.extend_from_slice(b" makespan=");
    push_decimal(&mut out, sched.makespan());
    out.extend_from_slice(b" procs=");
    push_decimal(&mut out, used.into());
    for n in 0..num_tasks {
        let pl = sched
            .placement(TaskId(n as u32))
            .expect("validated schedules place every task");
        out.extend_from_slice(b"\ntask ");
        push_decimal(&mut out, n as u64);
        out.push(b' ');
        push_decimal(&mut out, rank[pl.proc.index()].into());
        out.push(b' ');
        push_decimal(&mut out, pl.start);
        out.push(b' ');
        push_decimal(&mut out, pl.finish);
    }
    out.push(b'\n');
    String::from_utf8(out).expect("ASCII around a UTF-8 algorithm name")
}

/// Append `x` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Wrap rendered schedule bytes with the per-request counter trailer.
pub fn encode_ok(schedule: impl AsRef<[u8]>, cache_hit: bool, depth: usize) -> Vec<u8> {
    let schedule = schedule.as_ref();
    let trailer = format!(
        "end cache={} depth={depth}\n",
        if cache_hit { "hit" } else { "miss" }
    );
    let mut out = Vec::with_capacity(schedule.len() + trailer.len());
    out.extend_from_slice(schedule);
    out.extend_from_slice(trailer.as_bytes());
    out
}

/// Encode a structured error payload.
pub fn encode_err(e: &ServeError) -> Vec<u8> {
    let mut head = format!("err {}", e.code);
    if let Some(ms) = e.retry_after_ms {
        head.push_str(&format!(" retry_after_ms={ms}"));
    }
    format!("{head}\n{}\n", e.message).into_bytes()
}

/// A parsed response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Ok {
        algo: String,
        makespan: u64,
        procs: usize,
        /// The schedule block (`ok` line + `task` lines) — the bytes that
        /// must equal in-process scheduling output.
        schedule: String,
        cache_hit: bool,
        depth: u64,
    },
    Err {
        code: String,
        message: String,
        retry_after_ms: Option<u64>,
    },
    /// Shutdown acknowledged.
    Bye,
}

/// Parse a response payload.
pub fn parse_response(payload: &[u8]) -> Result<Response, String> {
    let s = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string())?;
    if payload == BYE {
        return Ok(Response::Bye);
    }
    if let Some(rest) = s.strip_prefix("err ") {
        let (line, message) = rest.split_once('\n').ok_or("err response missing body")?;
        let mut toks = line.split_whitespace();
        let code = toks.next().ok_or("err response missing code")?.to_string();
        let retry_after_ms = toks
            .filter_map(|t| t.strip_prefix("retry_after_ms="))
            .next()
            .map(|v| v.parse().map_err(|_| "bad retry_after_ms"))
            .transpose()?;
        return Ok(Response::Err {
            code,
            message: message.trim_end_matches('\n').to_string(),
            retry_after_ms,
        });
    }
    if s.starts_with("ok ") {
        let end_at = s.rfind("\nend ").ok_or("ok response missing end line")? + 1;
        let schedule = s[..end_at].to_string();
        let end_line = s[end_at..].trim_end_matches('\n');
        let ok_line = s.lines().next().unwrap_or("");
        let mut toks = ok_line.split_whitespace().skip(1);
        let algo = toks.next().ok_or("ok line missing algo")?.to_string();
        let field = |prefix: &str| -> Result<u64, String> {
            ok_line
                .split_whitespace()
                .filter_map(|t| t.strip_prefix(prefix))
                .next()
                .ok_or(format!("ok line missing {prefix}"))?
                .parse()
                .map_err(|_| format!("bad {prefix} value"))
        };
        let cache_hit = end_line.split_whitespace().any(|t| t == "cache=hit");
        let depth = end_line
            .split_whitespace()
            .filter_map(|t| t.strip_prefix("depth="))
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        return Ok(Response::Ok {
            algo,
            makespan: field("makespan=")?,
            procs: field("procs=")? as usize,
            schedule,
            cache_hit,
            depth,
        });
    }
    Err("response matches neither ok/err/bye".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip_tgf_and_bin() {
        for (wire, body) in [
            (GraphWire::Tgf, b"task 0 5\n".to_vec()),
            (GraphWire::Bin, vec![0u8, 159, 146, 150]),
        ] {
            let enc = encode_schedule_request(wire, "bnp:8", "MCP", &body);
            match parse_request(&enc).unwrap() {
                Request::Schedule {
                    wire: w,
                    platform,
                    algo,
                    graph,
                } => {
                    assert_eq!(w, wire);
                    assert_eq!(platform, "bnp:8");
                    assert_eq!(algo, "MCP");
                    assert_eq!(graph, &body[..]);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn compose_names_survive_the_header() {
        let name = "compose:PRIO=blevel,LIST=dynamic,SLOT=insert,SEL=ready";
        let enc = encode_schedule_request(GraphWire::Tgf, "bnp:4", name, b"");
        match parse_request(&enc).unwrap() {
            Request::Schedule { algo, .. } => assert_eq!(algo, name),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shutdown_request_parses() {
        assert_eq!(parse_request(SHUTDOWN_REQUEST).unwrap(), Request::Shutdown);
    }

    #[test]
    fn malformed_requests_carry_the_pinned_code() {
        for bad in [
            &b""[..],
            b"no newline here",
            b"schedule tgf\nbody",
            b"schedule xml bnp:8 MCP\n",
            b"resolve tgf bnp:8 MCP\n",
            b"schedule tgf bnp:8\n",
            b"\xff\xfe\n",
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.code, code::REQ_MALFORMED, "{bad:?}");
        }
    }

    #[test]
    fn ok_response_round_trip_splits_schedule_from_counters() {
        let schedule = "ok MCP makespan=42 procs=3\ntask 0 0 0 10\ntask 1 2 10 42\n";
        let enc = encode_ok(schedule, true, 5);
        match parse_response(&enc).unwrap() {
            Response::Ok {
                algo,
                makespan,
                procs,
                schedule: s,
                cache_hit,
                depth,
            } => {
                assert_eq!(algo, "MCP");
                assert_eq!(makespan, 42);
                assert_eq!(procs, 3);
                assert_eq!(s, schedule);
                assert!(cache_hit);
                assert_eq!(depth, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn err_response_round_trip_with_and_without_retry() {
        let e = ServeError::new(code::QUEUE_FULL, "queue full").retry_after(25);
        match parse_response(&encode_err(&e)).unwrap() {
            Response::Err {
                code: c,
                message,
                retry_after_ms,
            } => {
                assert_eq!(c, code::QUEUE_FULL);
                assert_eq!(message, "queue full");
                assert_eq!(retry_after_ms, Some(25));
            }
            other => panic!("{other:?}"),
        }
        let e = ServeError::new(code::REQ_MALFORMED, "nope");
        match parse_response(&encode_err(&e)).unwrap() {
            Response::Err { retry_after_ms, .. } => assert_eq!(retry_after_ms, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bye_round_trips() {
        assert_eq!(parse_response(BYE).unwrap(), Response::Bye);
    }

    /// Independent chains of heavy edges: the UNC algorithms give each
    /// chain its own cluster and leave most of their one-per-task
    /// processors empty, so the used ones are renumbered when rendered.
    fn chains() -> dagsched_graph::TaskGraph {
        let mut b = dagsched_graph::GraphBuilder::new();
        for c in 0..6u64 {
            let mut prev = None;
            for k in 0..5u64 {
                let t = b.add_task(1 + (c * 7 + k * 3) % 5);
                if let Some(p) = prev {
                    b.add_edge(p, t, 40 + c).unwrap();
                }
                prev = Some(t);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn render_compacts_processors_as_it_writes() {
        use dagsched_core::{registry, AlgoClass, Env};
        let g = chains();
        let mut renumbered = 0;
        for algo in registry::all() {
            let env = Env::parse_spec(match algo.class() {
                AlgoClass::Apn => "hypercube:3",
                _ => "bnp:16",
            })
            .unwrap();
            let s = algo.schedule(&g, &env).unwrap().schedule;
            let compact = s.compact_procs();
            if algo.class() == AlgoClass::Unc {
                assert!(
                    2 * s.procs_used() < s.num_procs(),
                    "{}: {} of {} processors used",
                    algo.name(),
                    s.procs_used(),
                    s.num_procs()
                );
            }
            let moved = (0..g.num_tasks() as u32)
                .any(|n| s.proc_of(TaskId(n)) != compact.proc_of(TaskId(n)));
            renumbered += usize::from(moved);
            assert_eq!(
                render_schedule(algo.name(), &s, g.num_tasks()),
                render_schedule(algo.name(), &compact, g.num_tasks()),
                "{}",
                algo.name()
            );
        }
        assert!(renumbered > 0, "no schedule needed renumbering");
    }

    #[test]
    fn decimal_writer_matches_display() {
        for x in [0, 7, 10, 99, 1_000_000, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, x);
            assert_eq!(out, x.to_string().into_bytes());
        }
    }

    #[test]
    fn serve_codes_are_pinned() {
        assert_eq!(code::FRAME_OVERSIZE, "E_FRAME_OVERSIZE");
        assert_eq!(code::REQ_MALFORMED, "E_REQ_MALFORMED");
        assert_eq!(code::PLATFORM_BAD, "E_PLATFORM_BAD");
        assert_eq!(code::QUEUE_FULL, "E_QUEUE_FULL");
        assert_eq!(code::INTERNAL, "E_INTERNAL");
    }
}
