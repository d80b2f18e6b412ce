//! Pre-refactor reference implementations, kept verbatim so the perf
//! benches can prove speedups against the real former code instead of a
//! straw man. Nothing here is wired into the algorithm registry.
//!
//! [`DscBaseline`] is the DSC implementation as it stood before the
//! hot-path overhaul: a full `Schedule::clone` per DSRW guard evaluation,
//! an O(|ready|) membership scan inside the partially-free search (via
//! `LinearReadySet`), and its own uncached b-level pass. The refactored
//! `dagsched_core::unc::Dsc` must produce byte-identical schedules; the
//! `perf_baseline` binary checks the speedup and the tests below the
//! equivalence.
//!
//! [`DscScanBaseline`] is DSC as it stood *after* that first overhaul but
//! before the incremental priority-queue engine: clone-free DSRW and an
//! O(1)-membership ready set, yet still an O(|ready|) scan to select the
//! free node and — the dominant cost — a fresh O(v + e) whole-graph scan
//! per step to find the highest-priority partially free node. The
//! heap-driven `dagsched_core::unc::Dsc` must again produce byte-identical
//! schedules; `perf_baseline`'s `dsc_incremental_speedup` section gates
//! the speedup at paper scale.
//!
//! [`MdScan`] and [`DcpScan`] are MD and DCP as they stood before the
//! incremental engine: a full [`DynLevels::compute`] rescan of the
//! scheduled-graph view — combined adjacency vectors, Kahn order, forward
//! and backward passes — after **every** placement. They are
//! decision-identical to the engine-driven `dagsched_core::unc::{Md, Dcp}`
//! (including the repaired look-ahead probe, which changed decisions and
//! is pinned by its own regression test + the golden table);
//! `perf_baseline` gates `md_incremental_speedup` /
//! `dcp_incremental_speedup` and the sweep below proves placement
//! identity.
//!
//! [`BsaBaseline`] is BSA as it stood before the APN message-layer
//! overhaul, over a verbatim retention of the old message layer
//! (`OldNetwork`/`OldTrack`): per-call route vectors with a
//! `link_between` lookup per hop, probe-then-insert double slot searches,
//! O(n) tag-scan removals, a tombstone message store behind a hashed edge
//! index — and, on top, the old algorithmic shape: every tentative
//! migration cloned the per-processor orders and **replayed the entire
//! schedule from scratch** (fresh `Schedule`, fresh network over a cloned
//! `Topology`, every message recommitted). The refactored
//! `dagsched_core::apn::Bsa` evaluates candidates through an incremental
//! rollback journal over the new layer instead and must produce
//! placement- *and* message-identical schedules; `perf_baseline` gates
//! the speedup.
//!
//! [`bnp`] holds the six BNP list schedulers as they stood before the
//! composable-scheduler refactor; the `dagsched_core::compose` presets
//! must match them placement for placement.

pub mod bnp;

use dagsched_core::common::{drt, DynLevels, ReadySet};
use dagsched_core::{AlgoClass, Env, Outcome, SchedError, Scheduler};
use dagsched_graph::{levels, TaskGraph, TaskId};
use dagsched_platform::{Message, MessageHop, Network, ProcId, Schedule, Topology};

/// The ready set as it was before the overhaul: `Vec` membership scans.
#[derive(Debug, Clone)]
struct LinearReadySet {
    missing_preds: Vec<u32>,
    ready: Vec<TaskId>,
}

impl LinearReadySet {
    fn new(g: &TaskGraph) -> LinearReadySet {
        let missing_preds: Vec<u32> = g.tasks().map(|n| g.in_degree(n) as u32).collect();
        let ready = g.entries().collect();
        LinearReadySet {
            missing_preds,
            ready,
        }
    }

    fn contains(&self, n: TaskId) -> bool {
        self.ready.contains(&n)
    }

    fn take(&mut self, g: &TaskGraph, n: TaskId) {
        let idx = self
            .ready
            .iter()
            .position(|&r| r == n)
            .expect("take: node must be ready");
        self.ready.swap_remove(idx);
        for &(child, _) in g.succs(n) {
            self.missing_preds[child.index()] -= 1;
            if self.missing_preds[child.index()] == 0 {
                self.ready.push(child);
            }
        }
    }

    fn argmax_by_key<K: Ord>(&self, mut key: impl FnMut(TaskId) -> K) -> Option<TaskId> {
        self.ready
            .iter()
            .copied()
            .max_by(|&a, &b| key(a).cmp(&key(b)).then(b.0.cmp(&a.0)))
    }
}

/// Uncached b-levels, exactly as `levels::b_levels` computed them before
/// the per-graph cache existed.
fn b_levels_uncached(g: &TaskGraph) -> Vec<u64> {
    let mut bl = vec![0u64; g.num_tasks()];
    for &n in g.topo_order().iter().rev() {
        let mut best = 0u64;
        for &(s, c) in g.succs(n) {
            best = best.max(c + bl[s.index()]);
        }
        bl[n.index()] = g.weight(n) + best;
    }
    bl
}

/// The pre-refactor DSC. See the module docs; the algorithm itself is the
/// one described in `dagsched_core::unc::dsc`.
#[derive(Debug, Default, Clone, Copy)]
pub struct DscBaseline;

impl Scheduler for DscBaseline {
    fn name(&self) -> &'static str {
        "DSC-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let bl = b_levels_uncached(g);
        let mut s = Schedule::new(v, v);
        let mut tlevel = vec![0u64; v];
        let mut ready = LinearReadySet::new(g);
        let mut next_fresh = 0u32;
        let mut scheduled_count = 0usize;

        while scheduled_count < v {
            let nf = ready
                .argmax_by_key(|n| tlevel[n.index()] + bl[n.index()])
                .expect("acyclic graph always has a free node");

            let pfp = partially_free_max(g, &s, &ready, &tlevel, &bl);

            let mut best: Option<(u64, ProcId)> = None;
            let mut parent_procs: Vec<ProcId> = g
                .preds(nf)
                .iter()
                .filter_map(|&(q, _)| s.proc_of(q))
                .collect();
            parent_procs.sort_unstable();
            parent_procs.dedup();
            for &p in &parent_procs {
                let start = append_start(g, &s, nf, p);
                if best.is_none_or(|(bs, bp)| start < bs || (start == bs && p < bp)) {
                    best = Some((start, p));
                }
            }

            let mut placed = false;
            if let Some((start, p)) = best {
                if start < tlevel[nf.index()] {
                    let dsrw_ok = match pfp {
                        Some(pf) if priority(pf, &tlevel, &bl) > priority(nf, &tlevel, &bl) => {
                            let before = append_start(g, &s, pf, p);
                            let after = {
                                let mut trial = s.clone();
                                trial
                                    .place(nf, p, start, g.weight(nf))
                                    .expect("append start is free");
                                append_start(g, &trial, pf, p)
                            };
                            after <= before
                        }
                        _ => true,
                    };
                    if dsrw_ok {
                        s.place(nf, p, start, g.weight(nf))
                            .expect("append start is free");
                        tlevel[nf.index()] = start;
                        placed = true;
                    }
                }
            }
            if !placed {
                while !s.timeline(ProcId(next_fresh)).is_empty() {
                    next_fresh += 1;
                }
                let p = ProcId(next_fresh);
                let start = tlevel[nf.index()];
                s.place(nf, p, start, g.weight(nf))
                    .expect("fresh cluster is idle");
            }
            scheduled_count += 1;

            let fin = s.finish_of(nf).expect("just placed");
            for &(c, cost) in g.succs(nf) {
                tlevel[c.index()] = tlevel[c.index()].max(fin + cost);
            }
            ready.take(g, nf);
        }

        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

#[inline]
fn priority(n: TaskId, tlevel: &[u64], bl: &[u64]) -> u64 {
    tlevel[n.index()] + bl[n.index()]
}

fn append_start(g: &TaskGraph, s: &Schedule, n: TaskId, p: ProcId) -> u64 {
    let mut drt = 0u64;
    for &(q, c) in g.preds(n) {
        if let Some(pl) = s.placement(q) {
            let cost = if pl.proc == p { 0 } else { c };
            drt = drt.max(pl.finish + cost);
        }
    }
    s.timeline(p).earliest_append(drt)
}

fn partially_free_max(
    g: &TaskGraph,
    s: &Schedule,
    ready: &LinearReadySet,
    tlevel: &[u64],
    bl: &[u64],
) -> Option<TaskId> {
    g.tasks()
        .filter(|&n| s.placement(n).is_none())
        .filter(|&n| !ready.contains(n))
        .filter(|&n| g.preds(n).iter().any(|&(q, _)| s.placement(q).is_some()))
        .max_by_key(|&n| (priority(n, tlevel, bl), std::cmp::Reverse(n.0)))
}

/// The DSC of the PR-1 hot-path overhaul, retained verbatim: clone-free
/// DSRW (place/estimate/unplace on the live schedule) and the O(1)
/// membership `ReadySet`, but per step still an O(|ready|) `argmax` scan
/// for the free node and a full O(v + e) graph scan for the partially free
/// one. The incremental `dagsched_core::unc::Dsc` replaces both scans with
/// rekeyable [`dagsched_core::common::IndexedHeap`]s and must stay
/// placement-identical.
#[derive(Debug, Default, Clone, Copy)]
pub struct DscScanBaseline;

impl Scheduler for DscScanBaseline {
    fn name(&self) -> &'static str {
        "DSC-scan-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let bl = g.levels().b_levels(); // static b-levels, as in the original
        let mut s = Schedule::new(v, v);
        // tlevel[n] = current estimate of n's earliest start: for scheduled
        // nodes their actual start; for unscheduled, max over scheduled
        // parents of finish + c (full c: no cluster commitment yet).
        let mut tlevel = vec![0u64; v];
        let mut ready = ReadySet::new(g);
        let mut next_fresh = 0u32; // clusters are allocated in id order
        let mut scheduled_count = 0usize;

        while scheduled_count < v {
            let nf = ready
                .argmax_by_key(|n| tlevel[n.index()] + bl[n.index()])
                .expect("acyclic graph always has a free node");

            // Highest-priority *partially free* node: unscheduled, not free,
            // with at least one scheduled parent (its start estimate is
            // meaningful).
            let pfp = partially_free_max_scan(g, &s, &ready, &tlevel, bl);

            // Candidate clusters: those of nf's parents, evaluated by the
            // start time nf would get appended there (edges from parents in
            // that cluster are zeroed).
            let mut best: Option<(u64, ProcId)> = None;
            let mut parent_procs: Vec<ProcId> = g
                .preds(nf)
                .iter()
                .filter_map(|&(q, _)| s.proc_of(q))
                .collect();
            parent_procs.sort_unstable();
            parent_procs.dedup();
            for &p in &parent_procs {
                let start = append_start(g, &s, nf, p);
                if best.is_none_or(|(bs, bp)| start < bs || (start == bs && p < bp)) {
                    best = Some((start, p));
                }
            }

            // Accept the merge only if it strictly reduces nf's t-level and
            // does not violate the DSRW guard.
            let mut placed = false;
            if let Some((start, p)) = best {
                if start < tlevel[nf.index()] {
                    let dsrw_ok = match pfp {
                        Some(pf) if priority(pf, &tlevel, bl) > priority(nf, &tlevel, bl) => {
                            // Estimate pf's start on that cluster before and
                            // after the attachment; reject if it would grow.
                            let before = append_start(g, &s, pf, p);
                            s.place(nf, p, start, g.weight(nf))
                                .expect("append start is free");
                            let after = append_start(g, &s, pf, p);
                            s.unplace(nf);
                            after <= before
                        }
                        _ => true,
                    };
                    if dsrw_ok {
                        s.place(nf, p, start, g.weight(nf))
                            .expect("append start is free");
                        tlevel[nf.index()] = start;
                        placed = true;
                    }
                }
            }
            if !placed {
                // Own (fresh) cluster at the plain t-level.
                while !s.timeline(ProcId(next_fresh)).is_empty() {
                    next_fresh += 1;
                }
                let p = ProcId(next_fresh);
                let start = tlevel[nf.index()];
                s.place(nf, p, start, g.weight(nf))
                    .expect("fresh cluster is idle");
            }
            scheduled_count += 1;

            // Propagate t-level estimates to children.
            let fin = s.finish_of(nf).expect("just placed");
            for &(c, cost) in g.succs(nf) {
                tlevel[c.index()] = tlevel[c.index()].max(fin + cost);
            }
            ready.take(g, nf);
        }

        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// The O(v + e) whole-graph scan the heap engine replaced: every step,
/// filter all tasks down to the partially free ones and max over them.
fn partially_free_max_scan(
    g: &TaskGraph,
    s: &Schedule,
    ready: &ReadySet,
    tlevel: &[u64],
    bl: &[u64],
) -> Option<TaskId> {
    g.tasks()
        .filter(|&n| s.placement(n).is_none())
        .filter(|&n| !ready.contains(n))
        .filter(|&n| g.preds(n).iter().any(|&(q, _)| s.placement(q).is_some()))
        .max_by_key(|&n| (priority(n, tlevel, bl), std::cmp::Reverse(n.0)))
}

/// DCP's candidate processor set, as shared by the scan-era schedulers:
/// processors holding a parent or child of `n`, plus the first idle one.
fn neighbourhood_procs_scan(g: &TaskGraph, s: &Schedule, n: TaskId) -> Vec<ProcId> {
    let mut out: Vec<ProcId> = Vec::new();
    for &(q, _) in g.preds(n).iter().chain(g.succs(n).iter()) {
        if let Some(p) = s.proc_of(q) {
            out.push(p);
        }
    }
    for pi in 0..s.num_procs() as u32 {
        if s.timeline(ProcId(pi)).is_empty() {
            out.push(ProcId(pi));
            break;
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// MD over the per-placement `DynLevels` rescan — the pre-engine
/// implementation, decision-identical to `dagsched_core::unc::Md`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MdScan;

impl Scheduler for MdScan {
    fn name(&self) -> &'static str {
        "MD-scan-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let mut s = Schedule::new(v, v);
        let mut ready = ReadySet::new(g);
        let mut used = 0u32; // processors 0..used have been opened

        while !ready.is_empty() {
            let d = DynLevels::compute(g, &s);
            // Minimum relative mobility; exact comparison via
            // cross-multiplication: M(a) < M(b) ⇔ slack_a·w_b < slack_b·w_a.
            let n = ready
                .iter()
                .min_by(|&a, &b| {
                    let (sa, sb) = (d.mobility(a) as u128, d.mobility(b) as u128);
                    let (wa, wb) = (g.weight(a) as u128, g.weight(b) as u128);
                    (sa * wb)
                        .cmp(&(sb * wa))
                        .then(d.aest(a).cmp(&d.aest(b)))
                        .then(a.0.cmp(&b.0))
                })
                .expect("ready set non-empty");

            let alst = d.alst(n);
            let w = g.weight(n);
            // First used processor with an insertion slot that keeps the CP.
            let mut placed_at: Option<(ProcId, u64)> = None;
            for pi in 0..used {
                let p = ProcId(pi);
                let start = s.timeline(p).earliest_fit(drt(g, &s, n, p), w);
                if start <= alst {
                    placed_at = Some((p, start));
                    break;
                }
            }
            let (p, start) = placed_at.unwrap_or_else(|| {
                // Fresh processor: starts exactly at the t-level.
                let p = ProcId(used);
                (p, d.aest(n))
            });
            if p.0 == used {
                used += 1;
            }
            s.place(n, p, start, w).expect("chosen slot is free");
            ready.take(g, n);
        }

        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// DCP over the per-placement `DynLevels` rescan — the pre-engine
/// implementation, decision-identical to `dagsched_core::unc::Dcp` with
/// the look-ahead enabled (including the repaired insertion-policy child
/// probe, so the only difference is how levels are obtained).
#[derive(Debug, Default, Clone, Copy)]
pub struct DcpScan;

impl Scheduler for DcpScan {
    fn name(&self) -> &'static str {
        "DCP-scan-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Unc
    }

    fn schedule(&self, g: &TaskGraph, _env: &Env) -> Result<Outcome, SchedError> {
        let v = g.num_tasks();
        let mut s = Schedule::new(v, v);
        let mut ready = ReadySet::new(g);

        while !ready.is_empty() {
            let d = DynLevels::compute(g, &s);
            // Smallest mobility (ALST − AEST), then smallest AEST, then id.
            let n = ready
                .iter()
                .min_by_key(|&n| (d.mobility(n), d.aest(n), n.0))
                .expect("ready set non-empty");
            let w = g.weight(n);

            // Critical child: unscheduled child with the smallest ALST.
            let crit_child: Option<TaskId> = g
                .succs(n)
                .iter()
                .map(|&(c, _)| c)
                .filter(|&c| s.placement(c).is_none())
                .min_by_key(|&c| (d.alst(c), c.0));

            let mut best: Option<(u64, u64, ProcId)> = None; // (score, start, proc)
            for p in neighbourhood_procs_scan(g, &s, n) {
                let start = s.timeline(p).earliest_fit(drt(g, &s, n, p), w);
                let score = match crit_child {
                    Some(cc) => {
                        let mut child_drt = start + w; // n → cc zeroed on p
                        for &(q, c) in g.preds(cc) {
                            if q == n {
                                continue;
                            }
                            if let Some(pl) = s.placement(q) {
                                let cost = if pl.proc == p { 0 } else { c };
                                child_drt = child_drt.max(pl.finish + cost);
                            }
                        }
                        s.place(n, p, start, w).expect("probed slot is free");
                        let child_est = s.timeline(p).earliest_fit(child_drt, g.weight(cc));
                        s.unplace(n);
                        start + child_est
                    }
                    None => start,
                };
                if best.is_none_or(|(bs, bst, bp)| (score, start, p.0) < (bs, bst, bp.0)) {
                    best = Some((score, start, p));
                }
            }
            let (_, start, p) = best.expect("neighbourhood always has a fresh candidate");
            s.place(n, p, start, w).expect("insertion slot is free");
            ready.take(g, n);
        }

        Ok(Outcome {
            schedule: s,
            network: None,
        })
    }
}

/// The link-occupancy track as it stood before the overhaul: insert
/// re-searches the slot list the probe already walked, and removal is an
/// O(n) scan by tag.
#[derive(Debug, Clone, Default)]
struct OldTrack {
    slots: Vec<(u64, u64, dagsched_platform::MsgId)>, // (start, finish, tag)
}

impl OldTrack {
    fn earliest_fit(&self, earliest: u64, duration: u64) -> u64 {
        let mut candidate = earliest;
        let first = self.slots.partition_point(|s| s.1 <= earliest);
        for s in &self.slots[first..] {
            if s.0 >= candidate && s.0 - candidate >= duration {
                return candidate;
            }
            if s.1 > candidate {
                candidate = s.1;
            }
        }
        candidate
    }

    fn insert(&mut self, start: u64, finish: u64, tag: dagsched_platform::MsgId) {
        let idx = self.slots.partition_point(|s| s.0 < start);
        debug_assert!(idx == 0 || self.slots[idx - 1].1 <= start);
        debug_assert!(idx == self.slots.len() || self.slots[idx].0 >= finish);
        self.slots.insert(idx, (start, finish, tag));
    }
}

/// The message layer as it stood before the overhaul (PR 2 state),
/// retained verbatim in behaviour and cost profile: per-call route
/// vectors with a `link_between` lookup per hop, a tombstone-accumulating
/// message store, a hashed edge index, and probe-then-insert double slot
/// searches. Produces arrival times identical to the new `Network`.
struct OldNetwork {
    topo: Topology,
    tracks: Vec<OldTrack>,
    messages: Vec<Option<Message>>,
    by_edge: std::collections::HashMap<(TaskId, TaskId), dagsched_platform::MsgId>,
}

impl OldNetwork {
    fn new(topo: Topology) -> OldNetwork {
        let links = topo.num_links();
        OldNetwork {
            topo,
            tracks: vec![OldTrack::default(); links],
            messages: Vec::new(),
            by_edge: std::collections::HashMap::new(),
        }
    }

    /// The pre-overhaul route computation: a fresh `Vec` per call, one
    /// adjacency binary search per hop.
    fn route(&self, a: ProcId, b: ProcId) -> Vec<dagsched_platform::LinkId> {
        let procs = self.topo.route_procs(a, b);
        let mut out = Vec::new();
        for w in procs.windows(2) {
            out.push(
                self.topo
                    .link_between(w[0], w[1])
                    .expect("next hop must be adjacent"),
            );
        }
        out
    }

    fn walk_route(
        &self,
        from: ProcId,
        to: ProcId,
        ready: u64,
        size: u64,
        mut visit: impl FnMut(dagsched_platform::LinkId, u64, u64),
    ) -> u64 {
        if from == to || size == 0 {
            return ready;
        }
        let route = self.route(from, to);
        let mut t = ready;
        for &link in &route {
            let s = self.tracks[link.index()].earliest_fit(t, size);
            let f = s + size;
            visit(link, s, f);
            t = f;
        }
        t
    }

    fn commit(
        &mut self,
        src_task: TaskId,
        dst_task: TaskId,
        from: ProcId,
        to: ProcId,
        ready: u64,
        size: u64,
    ) -> u64 {
        if let Some(id) = self.by_edge.remove(&(src_task, dst_task)) {
            if let Some(msg) = self.messages[id.0 as usize].take() {
                for hop in &msg.hops {
                    let track = &mut self.tracks[hop.link.index()];
                    let idx = track
                        .slots
                        .iter()
                        .position(|s| s.2 == id)
                        .expect("hop reserved");
                    track.slots.remove(idx);
                }
            }
        }
        let id = dagsched_platform::MsgId(self.messages.len() as u32);
        let mut hops = Vec::new();
        let arrival = self.walk_route(from, to, ready, size, |link, s, f| {
            hops.push(MessageHop {
                link,
                start: s,
                finish: f,
            });
        });
        for hop in &hops {
            self.tracks[hop.link.index()].insert(hop.start, hop.finish, id);
        }
        self.messages.push(Some(Message {
            src_task,
            dst_task,
            from,
            to,
            hops,
            ready,
            arrival,
        }));
        self.by_edge.insert((src_task, dst_task), id);
        arrival
    }
}

/// Task schedule + link state for the baseline BSA, mirroring the former
/// private `ApnState` of `dagsched_core::apn` over the old message layer.
struct ApnStateBaseline {
    s: Schedule,
    net: OldNetwork,
}

impl ApnStateBaseline {
    fn commit_and_place(&mut self, g: &TaskGraph, n: TaskId, p: ProcId) -> u64 {
        let mut drt = 0u64;
        for &(q, c) in g.preds(n) {
            let pl = self.s.placement(q).expect("commit: parent must be placed");
            let arrival = if pl.proc == p || c == 0 {
                pl.finish
            } else {
                self.net.commit(q, n, pl.proc, p, pl.finish, c)
            };
            drt = drt.max(arrival);
        }
        let start = self.s.timeline(p).earliest_append(drt);
        self.s
            .place(n, p, start, g.weight(n))
            .expect("append start is free");
        start
    }
}

/// From-scratch replay of a full assignment, exactly as the pre-overhaul
/// BSA ran it once per tentative migration: fresh schedule, fresh network
/// (cloning the topology), every message recommitted through the old
/// message layer.
fn replay_baseline(
    g: &TaskGraph,
    topo: &Topology,
    orders: &[Vec<TaskId>],
) -> Option<ApnStateBaseline> {
    let procs = topo.num_procs();
    let mut st = ApnStateBaseline {
        s: Schedule::new(g.num_tasks(), procs),
        net: OldNetwork::new(topo.clone()),
    };
    let mut heads = vec![0usize; procs];
    let mut remaining = g.num_tasks();
    while remaining > 0 {
        let mut progress = false;
        for pi in 0..procs as u32 {
            let p = ProcId(pi);
            while let Some(&n) = orders[pi as usize].get(heads[pi as usize]) {
                let ready = g.preds(n).iter().all(|&(q, _)| st.s.placement(q).is_some());
                if !ready {
                    break;
                }
                st.commit_and_place(g, n, p);
                heads[pi as usize] += 1;
                remaining -= 1;
                progress = true;
            }
        }
        if !progress {
            return None;
        }
    }
    Some(st)
}

/// Rebuild the final outcome on the *new* message layer by replaying the
/// decided orders once through the public `Network` API (identical times:
/// the layers implement the same model). Runs once, outside the timed
/// migration loop, so `BsaBaseline`'s `Outcome` is comparable field by
/// field with the refactored BSA's.
fn modern_outcome(g: &TaskGraph, topo: &Topology, orders: &[Vec<TaskId>]) -> Outcome {
    let procs = topo.num_procs();
    let mut s = Schedule::new(g.num_tasks(), procs);
    let mut net = Network::new(topo.clone());
    let mut heads = vec![0usize; procs];
    let mut remaining = g.num_tasks();
    while remaining > 0 {
        let mut progress = false;
        for pi in 0..procs as u32 {
            let p = ProcId(pi);
            while let Some(&n) = orders[pi as usize].get(heads[pi as usize]) {
                let ready = g.preds(n).iter().all(|&(q, _)| s.placement(q).is_some());
                if !ready {
                    break;
                }
                let mut drt = 0u64;
                for &(q, c) in g.preds(n) {
                    let pl = s.placement(q).expect("parent placed");
                    let arrival = if pl.proc == p || c == 0 {
                        pl.finish
                    } else {
                        net.commit(q, n, pl.proc, p, pl.finish, c).1
                    };
                    drt = drt.max(arrival);
                }
                let start = s.timeline(p).earliest_append(drt);
                s.place(n, p, start, g.weight(n)).expect("append is free");
                heads[pi as usize] += 1;
                remaining -= 1;
                progress = true;
            }
        }
        assert!(progress, "decided orders cannot deadlock");
    }
    Outcome {
        schedule: s,
        network: Some(net),
    }
}

/// The CPN-dominant sequence, copied verbatim from `dagsched_core::apn::bsa`
/// (the sequence construction is not part of the overhaul).
fn cpn_dominant_sequence(g: &TaskGraph) -> Vec<TaskId> {
    let cp = levels::critical_path(g);
    let bl = g.levels().b_levels();
    let topo_pos: Vec<usize> = {
        let mut v = vec![0usize; g.num_tasks()];
        for (i, &n) in g.topo_order().iter().enumerate() {
            v[n.index()] = i;
        }
        v
    };
    let mut listed = vec![false; g.num_tasks()];
    let mut seq = Vec::with_capacity(g.num_tasks());
    for &cpn in &cp {
        let mut anc = Vec::new();
        let mut stack = vec![cpn];
        let mut seen = vec![false; g.num_tasks()];
        while let Some(x) = stack.pop() {
            for &(q, _) in g.preds(x) {
                if !seen[q.index()] && !listed[q.index()] {
                    seen[q.index()] = true;
                    anc.push(q);
                    stack.push(q);
                }
            }
        }
        anc.sort_unstable_by_key(|&n| topo_pos[n.index()]);
        for n in anc {
            listed[n.index()] = true;
            seq.push(n);
        }
        if !listed[cpn.index()] {
            listed[cpn.index()] = true;
            seq.push(cpn);
        }
    }
    let mut rest: Vec<TaskId> = g.tasks().filter(|n| !listed[n.index()]).collect();
    rest.sort_unstable_by_key(|&n| (std::cmp::Reverse(bl[n.index()]), n.0));
    seq.extend(rest);
    seq
}

/// The pre-refactor BSA: serial injection on the pivot, then bubbling
/// migration with a **full replay per candidate** (cloned orders, fresh
/// schedule and network each time). See the module docs; the decision
/// rules are identical to `dagsched_core::apn::Bsa`.
#[derive(Debug, Default, Clone, Copy)]
pub struct BsaBaseline;

impl Scheduler for BsaBaseline {
    fn name(&self) -> &'static str {
        "BSA-baseline"
    }

    fn class(&self) -> AlgoClass {
        AlgoClass::Apn
    }

    fn schedule(&self, g: &TaskGraph, env: &Env) -> Result<Outcome, SchedError> {
        if env.procs() == 0 {
            return Err(SchedError::NoProcessors);
        }
        let topo = &env.topology;
        let procs = topo.num_procs();
        let seq = cpn_dominant_sequence(g);
        let mut seq_pos = vec![0usize; g.num_tasks()];
        for (i, &n) in seq.iter().enumerate() {
            seq_pos[n.index()] = i;
        }

        let pivot = ProcId(0);
        let mut orders: Vec<Vec<TaskId>> = vec![Vec::new(); procs];
        orders[pivot.index()] = seq.clone();
        let mut st = replay_baseline(g, topo, &orders)
            .expect("serial injection follows a topological order");

        for p in topo.bfs_order(pivot) {
            let snapshot = st.s.tasks_on(p);
            for n in snapshot {
                if st.s.proc_of(n) != Some(p) {
                    continue;
                }
                let cur_start = st.s.start_of(n).expect("placed");
                let cur_makespan = st.s.makespan();
                type Candidate = (u64, u64, u32, Vec<Vec<TaskId>>, ApnStateBaseline);
                let mut best: Option<Candidate> = None;
                for &(q, _) in topo.neighbors(p) {
                    let mut trial = orders.clone();
                    trial[p.index()].retain(|&t| t != n);
                    let row = &mut trial[q.index()];
                    let at = row
                        .iter()
                        .position(|&t| seq_pos[t.index()] > seq_pos[n.index()])
                        .unwrap_or(row.len());
                    row.insert(at, n);
                    let Some(cand) = replay_baseline(g, topo, &trial) else {
                        continue;
                    };
                    let ns = cand.s.start_of(n).expect("placed in replay");
                    let nm = cand.s.makespan();
                    if ns <= cur_start && nm <= cur_makespan {
                        let key = (ns, nm, q.0);
                        if best
                            .as_ref()
                            .is_none_or(|(bs, bm, bq, _, _)| key < (*bs, *bm, *bq))
                        {
                            best = Some((ns, nm, q.0, trial, cand));
                        }
                    }
                }
                if let Some((_, _, _, trial, cand)) = best {
                    orders = trial;
                    st = cand;
                }
            }
        }

        drop(st);
        Ok(modern_outcome(g, topo, &orders))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_core::registry;
    use dagsched_suites::rgnos::{self, RgnosParams};

    /// The incremental BSA must match the replay-per-candidate baseline
    /// exactly: same placements AND the same committed message schedule,
    /// across topologies and CCR regimes.
    #[test]
    fn refactored_bsa_matches_baseline_schedules_and_messages() {
        let bsa = registry::by_name("BSA").unwrap();
        for &(v, ccr, seed) in &[(30usize, 0.5, 1u64), (50, 2.0, 2), (80, 10.0, 3)] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            for topo in [
                Topology::chain(4).unwrap(),
                Topology::hypercube(3).unwrap(),
                Topology::mesh(2, 3).unwrap(),
            ] {
                let env = Env::apn(topo.clone());
                let a = BsaBaseline.schedule(&g, &env).unwrap();
                let b = bsa.schedule(&g, &env).unwrap();
                for n in g.tasks() {
                    assert_eq!(
                        a.schedule.placement(n),
                        b.schedule.placement(n),
                        "v={v} ccr={ccr} seed={seed} {:?}: task {n}",
                        topo.kind()
                    );
                }
                let msgs = |o: &Outcome| {
                    let mut m: Vec<_> = o.network.as_ref().unwrap().messages().cloned().collect();
                    m.sort_by_key(|m| (m.src_task, m.dst_task));
                    m
                };
                assert_eq!(
                    msgs(&a),
                    msgs(&b),
                    "v={v} ccr={ccr} seed={seed} {:?}: message schedules diverged",
                    topo.kind()
                );
            }
        }
    }

    /// The incremental priority-queue DSC must be **placement-identical**
    /// to the retained scan version across a multi-thousand-instance RGNOS
    /// sweep — the same discipline that validated the PR-1 and PR-3
    /// overhauls. Sizes × CCRs × parallelisms × seeds = 2250 instances,
    /// plus a paper-scale spot check; any divergence in heap tie-breaking
    /// or t-level bookkeeping would surface as a placement diff here.
    #[test]
    fn incremental_dsc_matches_scan_baseline_across_sweep() {
        let dsc = registry::by_name("DSC").unwrap();
        let env = Env::bnp(1); // UNC algorithms ignore the environment
        let mut instances = 0usize;
        for &v in &[12usize, 25, 40, 60, 90] {
            for &ccr in &[0.1f64, 1.0, 10.0] {
                for &par in &[1u32, 3, 5] {
                    for seed in 0..50u64 {
                        let g = rgnos::generate(RgnosParams::new(v, ccr, par, seed));
                        let a = DscScanBaseline.schedule(&g, &env).unwrap();
                        let b = dsc.schedule(&g, &env).unwrap();
                        for n in g.tasks() {
                            assert_eq!(
                                a.schedule.placement(n),
                                b.schedule.placement(n),
                                "v={v} ccr={ccr} par={par} seed={seed} task {n}"
                            );
                        }
                        instances += 1;
                    }
                }
            }
        }
        // Paper-scale spot check on top of the small-instance sweep.
        for &(v, ccr, seed) in &[(400usize, 1.0f64, 7u64), (400, 0.1, 8)] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            let a = DscScanBaseline.schedule(&g, &env).unwrap();
            let b = dsc.schedule(&g, &env).unwrap();
            for n in g.tasks() {
                assert_eq!(
                    a.schedule.placement(n),
                    b.schedule.placement(n),
                    "v={v} ccr={ccr} seed={seed} task {n}"
                );
            }
            instances += 1;
        }
        assert!(instances > 2000, "sweep must stay multi-thousand-instance");
    }

    /// Shared driver for the MD/DCP placement-identity sweeps: the
    /// engine-driven scheduler must match its retained rescan baseline on
    /// every placement across a multi-thousand-instance RGNOS sweep
    /// (sizes × CCRs × parallelisms × seeds + paper-scale spot checks) —
    /// the discipline that validated the PR-1/PR-3/PR-4 overhauls. Any
    /// divergence in the incremental level repair (a missed dirty node, a
    /// wrong sequence-edge rewire) surfaces as a placement diff here.
    fn dyn_levels_sweep(new: &dyn Scheduler, old: &dyn Scheduler) {
        let env = Env::bnp(1); // UNC algorithms ignore the environment
        let mut instances = 0usize;
        for &v in &[12usize, 25, 40, 60, 90] {
            for &ccr in &[0.1f64, 1.0, 10.0] {
                for &par in &[1u32, 3, 5] {
                    for seed in 0..45u64 {
                        let g = rgnos::generate(RgnosParams::new(v, ccr, par, seed));
                        let a = old.schedule(&g, &env).unwrap();
                        let b = new.schedule(&g, &env).unwrap();
                        for n in g.tasks() {
                            assert_eq!(
                                a.schedule.placement(n),
                                b.schedule.placement(n),
                                "{}: v={v} ccr={ccr} par={par} seed={seed} task {n}",
                                new.name(),
                            );
                        }
                        instances += 1;
                    }
                }
            }
        }
        // Paper-scale spot checks on top of the small-instance sweep.
        for &(v, ccr, seed) in &[(300usize, 1.0f64, 7u64), (300, 0.1, 8)] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            let a = old.schedule(&g, &env).unwrap();
            let b = new.schedule(&g, &env).unwrap();
            for n in g.tasks() {
                assert_eq!(
                    a.schedule.placement(n),
                    b.schedule.placement(n),
                    "{}: v={v} ccr={ccr} seed={seed} task {n}",
                    new.name(),
                );
            }
            instances += 1;
        }
        assert!(instances > 2000, "sweep must stay multi-thousand-instance");
    }

    /// The engine-driven MD must be **placement-identical** to the
    /// retained per-placement-rescan version across the RGNOS sweep.
    #[test]
    fn incremental_md_matches_scan_baseline_across_sweep() {
        let md = registry::by_name("MD").unwrap();
        dyn_levels_sweep(md.as_ref(), &MdScan);
    }

    /// The engine-driven DCP must be **placement-identical** to the
    /// retained per-placement-rescan version across the RGNOS sweep.
    #[test]
    fn incremental_dcp_matches_scan_baseline_across_sweep() {
        let dcp = registry::by_name("DCP").unwrap();
        dyn_levels_sweep(dcp.as_ref(), &DcpScan);
    }

    /// The refactored DSC must match the baseline schedule exactly — same
    /// makespan, same processor count — on a spread of RGNOS instances.
    #[test]
    fn refactored_dsc_matches_baseline_schedules() {
        let dsc = registry::by_name("DSC").unwrap();
        let env = Env::bnp(1); // UNC algorithms ignore the environment
        for &(v, ccr, seed) in &[
            (60usize, 0.1, 1u64),
            (60, 1.0, 2),
            (120, 1.0, 3),
            (120, 10.0, 4),
        ] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            let a = DscBaseline.schedule(&g, &env).unwrap();
            let b = dsc.schedule(&g, &env).unwrap();
            for n in g.tasks() {
                assert_eq!(
                    a.schedule.placement(n),
                    b.schedule.placement(n),
                    "v={v} ccr={ccr} seed={seed} task {n}"
                );
            }
        }
    }
}
