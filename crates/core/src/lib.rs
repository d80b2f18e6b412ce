#![forbid(unsafe_code)]
//! # dagsched-core — the fifteen DAG scheduling algorithms
//!
//! This crate implements the full algorithm roster of Kwok & Ahmad,
//! *Benchmarking the Task Graph Scheduling Algorithms* (IPPS 1998), behind a
//! single [`Scheduler`] trait, segregated into the paper's three classes:
//!
//! | Class | Machine model | Algorithms |
//! |-------|---------------|------------|
//! | [`AlgoClass::Bnp`] | bounded processor count, fully connected, contention-free | HLFET, ISH, MCP, ETF, DLS, LAST |
//! | [`AlgoClass::Unc`] | unbounded processor (cluster) count, contention-free | EZ, LC, DSC, MD, DCP |
//! | [`AlgoClass::Apn`] | arbitrary topology, contended links, routed messages | MH, DLS-APN, BU, BSA |
//!
//! Every implementation cites its original publication in its module docs
//! and spells out the taxonomy attributes of §3 of the paper (priority
//! attribute, static vs dynamic list, insertion vs non-insertion, greedy vs
//! non-greedy, CP-based or not), plus any simplification relative to the
//! original (also summarized in DESIGN.md §2).
//!
//! The six BNP list schedulers are not hand-rolled monoliths: each is a
//! named preset of the composable component library in [`compose`]
//! (priority attribute × list policy × slot policy × selection rule × hole
//! filling), and the registry's `compose:` name grammar opens the full
//! composed variant space — see [`compose::Spec`] and
//! [`registry::enumerate`].
//!
//! ## Per-step cost of each algorithm (hot-path overhaul)
//!
//! The table records the dominant per-scheduling-step cost before and after
//! the CSR / cached-levels / ready-queue overhaul (`v` tasks, `e` edges,
//! `p` processors, `r = |ready|`; "—" = unchanged because the cost is
//! inherent to the algorithm's priority definition):
//!
//! | Algorithm | Before | After | What changed |
//! |-----------|--------|-------|--------------|
//! | HLFET | O(r) ready scan + O(p) EST | O(log v) heap pop + O(p) EST | static level → [`common::ReadyQueue`] |
//! | ISH | O(r) scan + O(r·p) hole fill | O(log v) pop + O(r·p) hole fill | selection on the heap; filler scan is inherent |
//! | MCP | O(v·(v + e)) setup: one descendant walk and one sort per node to build every ALAP list; O(p·len) slot search | O(v log v) `(alap, id)` sort; tied non-leaf nodes sorted by a lazy comparison (two best-first descendant walks on a min-heap, stopped at the first differing ALAP), no list built; binary-search start in `Track::earliest_fit` | a list starts with its own ALAP and ascends along every edge; slot search skips slots ending before the DRT; order pinned by `tests/placement_digests.rs` and a full-lists reference test; `tests/work_ceilings.rs` gates ≤ 4 ALAP values pulled per task (measured 0.60–1.40, against 23–280 for building every tied list) |
//! | ETF / DLS | O(r·p) pair scan | — | the (node, processor) min pair is recomputed by definition |
//! | LAST | O(r·e_local) | — | dynamic edge-locality priority |
//! | DSC | O(v·r) partially-free scan + O(v) `Schedule` clone in DSRW; then clone-free but still an O(v + e) rescan per step | O(log v) free-node pop + O(1) partially-free peek; each edge relaxation is one O(log v) rekey — whole pass O((v+e)·log v), the original's bound | two rekeyable [`common::IndexedHeap`]s (free + partially free), incremental t-levels under merges; clone-free DSRW retained; placements pinned by `tests/placement_digests.rs`; `tests/work_ceilings.rs` gates `heap.pops == v` and ≤ 12 heap ops per task at v=5000 (measured 5.99) |
//! | EZ | per merge trial (e of them): a fresh `Schedule` over v processors, a trial clustering clone and an O(r) ready scan per step | O(v log v + e) per trial on reused arrays — zeroed b-levels, one sort, one timing pass; no `Schedule` built | [`unc`]'s cluster timer: [`common::list_order`] plus the one timing pass for fixed clusterings (shared with LC, UNC+CS re-timing and Sarkar's mapping score); placements pinned by the EZ and UNC_CS tables of `tests/placement_digests.rs` |
//! | LC | O(v + e) level recompute | — (input levels now cached per graph) | static level passes shared via `TaskGraph::levels` |
//! | MD / DCP | full `DynLevels` rescan per placement — combined adjacency rebuild, Kahn order, two passes, O(v·(v + e)) per run | cone-bounded incremental repair: pinning `tl[n]` dirties only the forward cone over original edges, the new sequence edges and zeroed costs dirty the backward cone on the combined view, `cp` is a `peek_max`; O((v+e)·log v) worst case, small neighbourhoods in practice | [`common::DynLevelsEngine`] over three [`common::IndexedHeap`]s (forward/backward dirty order + `tl+bl` tracker); placements pinned by `tests/placement_digests.rs`; `tests/work_ceilings.rs` gates one repair per placement and ≤ 100 cone nodes per repair at v=2000 (measured 44 / 52, against 2v = 4000 for the rescan) |
//! | MH | O(r) ready scan; O(p·route) per parent edge with a route `Vec` + an adjacency lookup per hop per probe, each hop a slot-by-slot hole search | one O(v log v) b-level sort up front; O(p) hop-count bound terms per parent edge, then best-first probing: one parent arrival at a time on the processor of least key, so only arrivals that can still decide the winner are walked; each hop skips 16-slot blocks whose holes are all too short | [`common::list_order`] on static b-level; `Topology` CSR route tables; `Network::reindex` once per step, then [`apn`]'s best-first kernel over hop-count bounds read from `Topology::distances_from` rows; `tests/work_ceilings.rs` gates ≤ 0.45 of the exhaustive `p·e` parent arrivals (measured 0.14–0.33 at v=500) and ≤ 40 link slots and summaries per probed arrival (measured 9.8–19.4, against 44–183 slot by slot) |
//! | DLS-APN | O(r·p·route) per step with a route `Vec` + an adjacency lookup per hop per probe | O(r·p) hop-count bound terms per ready parent edge and an O(r·p) heap build per step; best-first probing walks only the parent arrivals that can still decide the winning (task, processor) pair, over block-indexed link tracks | MH's best-first kernel over all ready pairs, link tracks reindexed once per step; `tests/work_ceilings.rs` gates ≤ 10 parent arrivals per `p·e` (measured 0.25–7.65, against 22–81 for the exhaustive scan) |
//! | BU | O(v·p) assignment + an O(r) ready scan per step | O(v·p) assignment + one O(v log v) b-level sort | phase 2 walks [`common::list_order`]; commits ride the same allocation-free probes |
//! | BSA | full replay per tentative migration: O(v·deg·(v·p + e·hops)) + a topology clone and fresh allocations per candidate | O(v·deg·(v + e + suffix)) — journal diff, batched rollback, dominance bounds cut doomed trials early | [`apn`]'s `ReplayEngine`; `tests/work_ceilings.rs` gates ≤ 1000 messages committed per trial on the paper-scale APN instance (measured 427, against up to e = 2632 for a full replay) |
//! | B&B (reference, `dagsched-optimal`) | serial DFS over list schedules, exponential worst case, single incumbent | — (a parallel split of the same tree never beat serial and was removed; parallelism comes from solving independent cells concurrently) | byte-deterministic counters; `tests/placement_digests.rs` pins length, proof, node and prune counters and placements on 25 instances |
//!
//! Substrate changes underneath all of them: adjacency is CSR (flat
//! offsets + packed `(TaskId, cost)` entries — cache-line sweeps instead of
//! per-node heap allocations), and the five level attributes are computed
//! in two topological passes and cached on the graph, so `cp_length` /
//! `alap_times` / per-algorithm priority setup no longer re-run b-level
//! passes. Priority selection has four tiers in [`common`]: `ReadySet`
//! (O(1) membership, for algorithms that rescan by definition),
//! `list_order` (one sort, for a static list whose key strictly decreases
//! along every edge: MH, BU and the UNC cluster timer), `ReadyQueue` (lazy
//! max-heap for the composed static lists, whose hole filling needs the
//! live candidates), and `IndexedHeap`
//! (rekeyable, for dynamic priorities that change while a node waits —
//! the substrate of both DSC's t-level engine and the MD/DCP
//! dynamic-levels engine).
//!
//! ## Using an algorithm
//!
//! ```
//! use dagsched_core::{registry, Env, Scheduler};
//! use dagsched_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_task(4);
//! let c = b.add_task(6);
//! b.add_edge(a, c, 3).unwrap();
//! let g = b.build().unwrap();
//!
//! let mcp = registry::by_name("MCP").unwrap();
//! let env = Env::bnp(2); // two fully connected processors
//! let out = mcp.schedule(&g, &env).unwrap();
//! assert!(out.validate(&g).is_ok());
//! assert_eq!(out.schedule.makespan(), 10); // chain stays on one processor
//! ```

pub mod apn;
pub mod bnp;
pub mod common;
pub mod compose;
pub mod registry;
pub mod unc;

use dagsched_graph::TaskGraph;
use dagsched_platform::{Network, Schedule, Topology, ValidationError, MAX_PROCS};
use std::fmt;

/// The three algorithm classes of the paper's taxonomy (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoClass {
    /// Bounded Number of Processors, fully connected and contention-free.
    Bnp,
    /// Unbounded Number of Clusters (clustering algorithms).
    Unc,
    /// Arbitrary Processor Network with link contention.
    Apn,
}

impl fmt::Display for AlgoClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoClass::Bnp => write!(f, "BNP"),
            AlgoClass::Unc => write!(f, "UNC"),
            AlgoClass::Apn => write!(f, "APN"),
        }
    }
}

/// The machine a scheduler targets: a processor count, plus the network
/// when the machine is an arbitrary one.
///
/// * BNP algorithms read only the processor count: the machine is fully
///   connected and contention-free by model, so [`Env::bnp`] builds no
///   topology.
/// * UNC algorithms ignore the environment entirely: they may open as many
///   clusters as there are tasks.
/// * APN algorithms route messages over [`Env::topology`]; handed a
///   `bnp` machine, they build its fully connected network themselves.
///
/// Every `Env` has at least one processor, so no scheduler needs an
/// empty-machine check.
#[derive(Debug, Clone)]
pub struct Env {
    procs: usize,
    topology: Option<Topology>,
}

impl Env {
    /// A fully connected, contention-free machine with `p` processors —
    /// the BNP environment. Panics if `p` is 0.
    pub fn bnp(p: usize) -> Env {
        assert!(p >= 1, "a bnp machine needs at least 1 processor");
        Env {
            procs: p,
            topology: None,
        }
    }

    /// [`Env::bnp`] for a processor count that came from outside the
    /// program: `p` must be in `1..=`[`MAX_PROCS`].
    pub fn checked_bnp(p: usize) -> Result<Env, String> {
        match p {
            0 => Err("bnp needs at least 1 processor".into()),
            p if p > MAX_PROCS => Err(format!("`bnp:{p}` has more than {MAX_PROCS} processors")),
            p => Ok(Env::bnp(p)),
        }
    }

    /// An arbitrary-network environment.
    pub fn apn(topology: Topology) -> Env {
        Env {
            procs: topology.num_procs(),
            topology: Some(topology),
        }
    }

    /// Processor count of the environment.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The network of an [`Env::apn`] machine; `None` for [`Env::bnp`].
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// Parse a textual platform spec: `bnp:<procs>` for the bounded
    /// fully-connected machine, or any [`Topology::parse_spec`] spec
    /// (`hypercube:3`, `mesh:2x4`, …) for an arbitrary network; both reject
    /// more than [`MAX_PROCS`] processors. The serve protocol's platform
    /// field and loadgen resolve through here; the CLI's `-p` shares
    /// [`Env::checked_bnp`].
    pub fn parse_spec(spec: &str) -> Result<Env, String> {
        if let Some(rest) = spec.strip_prefix("bnp:") {
            let p: usize = rest
                .parse()
                .map_err(|_| format!("bad processor count `{rest}`"))?;
            Env::checked_bnp(p)
        } else {
            Topology::parse_spec(spec).map(Env::apn)
        }
    }
}

/// Why a scheduler could not produce a schedule.
///
/// It has no variant: every scheduler schedules every graph the graph
/// crate accepts on every [`Env`] (none is empty), so no `Err` can be
/// built. The type stays at the [`Scheduler`] boundary so that callers
/// (the CLI and the serve protocol map [`SchedError::code`]) already
/// handle a refusal when a reachable one, such as a work budget, is added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {}

impl fmt::Display for SchedError {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {}
    }
}

impl SchedError {
    /// Stable machine-readable code, shared by the CLI and the serve
    /// protocol.
    pub fn code(&self) -> &'static str {
        match *self {}
    }
}

impl std::error::Error for SchedError {}

/// What a scheduler produces: a complete schedule, plus the committed
/// message schedule for APN algorithms.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub schedule: Schedule,
    /// `Some` iff the algorithm scheduled messages on links (APN class).
    pub network: Option<Network>,
}

impl Outcome {
    /// Validate under the model the outcome was produced for:
    /// [`Schedule::validate_apn`] when a message schedule is present,
    /// [`Schedule::validate`] otherwise.
    pub fn validate(&self, g: &TaskGraph) -> Result<(), ValidationError> {
        match &self.network {
            Some(net) => self.schedule.validate_apn(g, net),
            None => self.schedule.validate(g),
        }
    }

    /// A 128-bit fingerprint of every decision the scheduler made: each
    /// task's `(proc, start, finish)` in task order and, for APN outcomes,
    /// every committed message sorted by `(src_task, dst_task)` with its
    /// endpoints, `ready`, `arrival` and each hop's `(link, start,
    /// finish)`. `tests/placement_digests.rs` pins these against a
    /// committed table.
    pub fn digest(&self) -> [u64; 2] {
        let s = &self.schedule;
        let mut words = vec![s.num_tasks() as u64];
        for i in 0..s.num_tasks() as u32 {
            match s.placement(dagsched_graph::TaskId(i)) {
                Some(p) => words.extend([p.proc.0 as u64, p.start, p.finish]),
                None => words.push(u64::MAX),
            }
        }
        if let Some(net) = &self.network {
            let mut msgs: Vec<_> = net.messages().iter().collect();
            msgs.sort_by_key(|m| (m.src_task, m.dst_task));
            words.push(msgs.len() as u64);
            for m in msgs {
                let ends = [m.src_task.0, m.dst_task.0, m.from.0, m.to.0];
                words.extend(ends.map(u64::from));
                let hops = net.hops(m);
                words.extend([m.ready, m.arrival, hops.len() as u64]);
                for h in hops {
                    words.extend([h.link.0 as u64, h.start, h.finish]);
                }
            }
        }
        digest_words(words)
    }
}

/// Two-stream FNV-1a over little-endian `u64` words, the second stream
/// rotated after every word: the hash under [`Outcome::digest`], also
/// used to fold instance digests into one per sweep cell.
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> [u64; 2] {
    let mut h = [0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64];
    for w in words {
        for b in w.to_le_bytes() {
            for s in h.iter_mut() {
                *s ^= b as u64;
                *s = s.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h[1] = h[1].rotate_left(17);
    }
    h
}

/// A static DAG scheduling algorithm.
pub trait Scheduler: Sync {
    /// The paper's acronym for the algorithm (e.g. `"MCP"`).
    fn name(&self) -> &'static str;
    /// Which class (and therefore machine model) the algorithm belongs to.
    fn class(&self) -> AlgoClass;
    /// Produce a complete schedule of `g` on `env`.
    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError>;
    /// Produce a schedule while emitting per-decision trace events
    /// ([`dagsched_obs::Event`]) to `sink`.
    ///
    /// Instrumented algorithms route both entry points through one
    /// generic internal run function, so `schedule()` pays nothing for
    /// the instrumentation (it runs with [`dagsched_obs::NullSink`],
    /// whose `enabled()` is a compile-time `false`). The default
    /// implementation — used by algorithms without per-decision hooks —
    /// simply delegates to [`Scheduler::schedule`] and emits nothing.
    ///
    /// Determinism contract: emitted events carry logical step stamps
    /// only (the sink's event index), never wall-clock values, so for a
    /// fixed `(algorithm, graph, env)` the event stream is identical
    /// across runs and thread counts.
    fn schedule_traced(
        &self,
        g: &TaskGraph,
        env: &Env,
        sink: &mut dyn dagsched_obs::Sink,
    ) -> Result<Outcome, SchedError> {
        let _ = sink;
        self.schedule(g, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_constructors() {
        let e = Env::bnp(4);
        assert_eq!(e.procs(), 4);
        let t = Topology::ring(5).unwrap();
        let e = Env::apn(t);
        assert_eq!(e.procs(), 5);
    }

    #[test]
    #[should_panic(expected = "at least 1 processor")]
    fn env_bnp_rejects_zero_processors() {
        Env::bnp(0);
    }

    #[test]
    fn class_display() {
        assert_eq!(AlgoClass::Bnp.to_string(), "BNP");
        assert_eq!(AlgoClass::Unc.to_string(), "UNC");
        assert_eq!(AlgoClass::Apn.to_string(), "APN");
    }

    #[test]
    fn env_parse_spec_covers_both_machine_families() {
        assert_eq!(Env::parse_spec("bnp:8").unwrap().procs(), 8);
        assert_eq!(Env::parse_spec("hypercube:3").unwrap().procs(), 8);
        assert_eq!(Env::parse_spec("mesh:2x4").unwrap().procs(), 8);
        // A `bnp:` machine is a processor count: no network is built.
        for spec in ["bnp:8", "bnp:256"] {
            assert!(
                Env::parse_spec(spec).unwrap().topology().is_none(),
                "{spec}"
            );
        }
        for (spec, procs) in [("full:8", 8), ("hypercube:3", 8)] {
            let env = Env::parse_spec(spec).unwrap();
            assert_eq!(
                env.topology().map(Topology::num_procs),
                Some(procs),
                "{spec}"
            );
        }
        for bad in ["bnp:0", "bnp:x", "nope:3", "bnp"] {
            assert!(Env::parse_spec(bad).is_err(), "{bad}");
        }
        assert_eq!(Env::parse_spec("bnp:256").unwrap().procs(), MAX_PROCS);
        for huge in [
            "bnp:257",
            "bnp:4294967297",
            "bnp:1000000000000",
            "full:60000",
        ] {
            let err = Env::parse_spec(huge).unwrap_err();
            assert!(err.contains("more than 256 processors"), "{huge}: {err}");
        }
    }
}
