//! APN — arbitrary-processor-network scheduling algorithms.
//!
//! The four APN algorithms of the paper — MH, DLS (network variant), BU and
//! BSA — schedule *messages on links* in addition to tasks on processors
//! (§4): the machine is an arbitrary [`dagsched_platform::Topology`] whose
//! links are contended, store-and-forward resources (see
//! [`dagsched_platform::Network`] for the exact model).
//!
//! Shared machinery: `ApnState` wraps a schedule plus the link state and
//! implements the probe/commit pattern — estimate a node's start on a
//! processor without reserving links, then commit the real messages once a
//! processor is chosen. Probes evaluate each incoming message independently
//! (mutual contention between a node's own messages is resolved only at
//! commit time); the committed start time is recomputed from the actual
//! arrivals, so schedules remain exactly feasible.
//!
//! Two hot-path kernels sit on top:
//!
//! * `BestFirst` — the best-first probe kernel MH and DLS-APN share. Every
//!   candidate (a processor for MH, a (ready task, processor) pair for
//!   DLS-APN) starts keyed by its contention-free start bound (hop counts
//!   only, no link walks). The kernel evaluates the next parent arrival of
//!   the best-keyed candidate, raises its key to that arrival, and keeps
//!   expanding it while it stays best; the first candidate found with
//!   every arrival evaluated is the exhaustive scan's winner. Each step
//!   opens with `Network::reindex`, so the probes' hole searches skip
//!   blocks of link slots whose holes are all too short for the message.
//! * `ReplayEngine` — incremental re-execution of `replay` with a
//!   trial-commit/rollback journal, the APN analogue of DSC's clone-free
//!   DSRW guard. BSA evaluates every tentative migration through it. The
//!   key fact making increments sound: the *order* in which `replay`
//!   commits tasks is a pure function of the per-processor orders and the
//!   graph's precedence structure — timing never feeds back into it. The
//!   engine therefore simulates the commit sequence of a trial (cheap
//!   integer work, no link state touched), diffs it against the journal of
//!   the live state, rolls back exactly the divergent suffix (unplace, and
//!   truncate the network's message stack to the prefix's length — both
//!   restore the track sets bit-for-bit), and replays forward only from
//!   the first difference. Results are byte-identical to a from-scratch
//!   replay.

pub mod bsa;
pub mod bu;
pub mod dls_apn;
pub mod mh;

pub use bsa::Bsa;
pub use bu::Bu;
pub use dls_apn::DlsApn;
pub use mh::Mh;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dagsched_graph::{TaskGraph, TaskId};
use dagsched_obs::{emit, Event, NullSink, Sink};
use dagsched_platform::{Network, ProcId, Schedule, Topology};

use crate::{Env, Outcome};

/// Mutable scheduling state of an APN algorithm: the task schedule plus the
/// link occupancy.
pub(crate) struct ApnState {
    pub s: Schedule,
    pub net: Network,
}

impl ApnState {
    /// Empty state on `env`'s network; a `bnp` machine is routed as the
    /// fully connected network of its processors.
    pub fn new(g: &TaskGraph, env: &Env) -> ApnState {
        let topo = match env.topology() {
            Some(t) => t.clone(),
            None => Topology::fully_connected(env.procs()).expect("an Env has a processor"),
        };
        ApnState {
            s: Schedule::new(g.num_tasks(), env.procs()),
            net: Network::new(topo),
        }
    }

    /// Commit the messages from all placed parents of `n` toward `p`
    /// (ascending parent id — deterministic), returning the actual
    /// data-ready time. Same-processor and zero-cost edges need no message.
    /// The messages are pushed onto the network's stack, so they are the
    /// ones past its length before the call (the replay engine's rollback
    /// point). Every routed message is reported to `sink` as
    /// [`Event::MessageRouted`] (MH's traced path). The replay engine
    /// passes a [`NullSink`]: per-message events in BSA's trial loop would
    /// swamp both the sink and the hot path.
    pub fn commit_parent_messages<S: Sink>(
        &mut self,
        g: &TaskGraph,
        n: TaskId,
        p: ProcId,
        sink: &mut S,
    ) -> u64 {
        let mut drt = 0u64;
        let mut committed = 0u64;
        for &(q, c) in g.preds(n) {
            let pl = self.s.placement(q).expect("commit: parent must be placed");
            let arrival = if pl.proc == p || c == 0 {
                pl.finish
            } else {
                let (id, arr) = self.net.commit(q, n, pl.proc, p, pl.finish, c);
                committed += u64::from(id.is_some());
                emit!(
                    sink,
                    Event::MessageRouted {
                        src: q.0,
                        dst: n.0,
                        from: pl.proc.0,
                        to: p.0,
                        arrival: arr,
                    }
                );
                arr
            };
            drt = drt.max(arrival);
        }
        if committed > 0 {
            dagsched_obs::global().add(dagsched_obs::Metric::ApnMsgsCommitted, committed);
        }
        drt
    }

    /// Commit messages and place `n` on `p` under the append policy.
    /// Returns the start time.
    pub fn commit_and_place(&mut self, g: &TaskGraph, n: TaskId, p: ProcId) -> u64 {
        let drt = self.commit_parent_messages(g, n, p, &mut NullSink);
        let start = self.s.timeline(p).earliest_append(drt);
        self.s
            .place(n, p, start, g.weight(n))
            .expect("append start is free");
        start
    }

    pub fn into_outcome(self) -> Outcome {
        Outcome {
            schedule: self.s,
            network: Some(self.net),
        }
    }
}

/// One parent of a candidate task, as its arrival probes read it.
#[derive(Debug, Clone, Copy)]
struct Parent {
    from: ProcId,
    finish: u64,
    cost: u64,
}

/// One candidate of [`BestFirst`]: a (task, processor) pair, a lower
/// bound `t` on its start, and how many of its task's parents `t` covers.
#[derive(Debug, Clone, Copy)]
struct Cand {
    /// Index into [`BestFirst::tasks`].
    slot: u32,
    proc: ProcId,
    /// Parents passed so far (a local or zero-cost one without a probe);
    /// `t` is exact once all are.
    next: u32,
    t: u64,
}

/// The best-first probe kernel MH and DLS-APN select through, with its
/// scratch reused across steps (a step allocates nothing once the buffers
/// have grown).
///
/// A step adds its candidate tasks ([`BestFirst::add_task`]), each paired
/// with every processor, then [`BestFirst::select`] returns the pair of
/// least `rank(task, proc, start)`. A candidate's key starts at its
/// contention-free bound (see [`BestFirst::add_task`]); the kernel
/// evaluates the next parent arrival of the candidate on top of a min-heap,
/// raises its key to `max(key, arrival)`, and keeps expanding it while it
/// stays on top. `rank` must not decrease as the start grows, so every key
/// ranks at or below its candidate's exact start, and the first candidate
/// popped with every parent evaluated is the exact minimum of an exhaustive
/// scan.
///
/// Parents are probed heaviest `finish + cost` first, so the arrival most
/// likely to decide a start is read first. A local or zero-cost parent is
/// never probed: it arrives at its finish, which the bound already holds.
pub(crate) struct BestFirst<K> {
    /// The step's candidate tasks.
    tasks: Vec<TaskId>,
    /// `parents[offsets[i]..offsets[i + 1]]` are `tasks[i]`'s parents.
    offsets: Vec<u32>,
    parents: Vec<Parent>,
    cands: Vec<Cand>,
    /// Min-heap of `(rank, index into cands)`.
    heap: BinaryHeap<Reverse<(K, u32)>>,
    /// Scratch: the contention-free bounds of the task being added.
    lbs: Vec<u64>,
    /// Parent arrivals probed in this step (`apn.probe_arrivals`).
    arrivals: u64,
    /// Link slots and block summaries those arrivals' hop searches visited
    /// (`apn.link_slots_scanned`).
    link_slots: u64,
}

impl<K: Ord + Copy> BestFirst<K> {
    pub fn new() -> BestFirst<K> {
        BestFirst {
            tasks: Vec::new(),
            offsets: vec![0],
            parents: Vec::new(),
            cands: Vec::new(),
            heap: BinaryHeap::new(),
            lbs: Vec::new(),
            arrivals: 0,
            link_slots: 0,
        }
    }

    /// Add `n` (every parent placed) as a candidate on every processor,
    /// keyed by its contention-free start bound: the larger of the
    /// processor's ready time and, over the parents, `finish + hops·c`
    /// (`finish` alone for a local or zero-cost edge), in saturating
    /// arithmetic. Every hop of a routed message costs at least `c`, so the
    /// bound never exceeds the exact start. No link is walked.
    pub fn add_task(&mut self, st: &ApnState, g: &TaskGraph, n: TaskId) {
        let topo = st.net.topology();
        self.lbs.clear();
        self.lbs
            .extend(topo.procs().map(|p| st.s.timeline(p).ready_time()));
        let first = self.parents.len();
        for &(q, cost) in g.preds(n) {
            let pl = st.s.placement(q).expect("add_task: parent must be placed");
            self.parents.push(Parent {
                from: pl.proc,
                finish: pl.finish,
                cost,
            });
            for (lb, &hops) in self.lbs.iter_mut().zip(topo.distances_from(pl.proc)) {
                *lb = (*lb).max(
                    pl.finish
                        .saturating_add(u64::from(hops).saturating_mul(cost)),
                );
            }
        }
        self.parents[first..].sort_unstable_by_key(|a| Reverse(a.finish.saturating_add(a.cost)));
        self.offsets.push(self.parents.len() as u32);
        let slot = self.tasks.len() as u32;
        self.tasks.push(n);
        self.cands
            .extend(self.lbs.iter().enumerate().map(|(pi, &t)| Cand {
                slot,
                proc: ProcId(pi as u32),
                next: 0,
                t,
            }));
    }

    /// The candidate `(task, proc, start)` of least `rank(task, proc,
    /// start)`, found best-first over link tracks reindexed for this step;
    /// the candidates are cleared for the next step. `on_complete` sees
    /// every candidate whose start the kernel completes: the winner, and
    /// each one whose last parent arrival raised it past the best key.
    /// Panics without candidates.
    pub fn select(
        &mut self,
        st: &mut ApnState,
        rank: impl Fn(TaskId, ProcId, u64) -> K,
        mut on_complete: impl FnMut(TaskId, ProcId, u64),
    ) -> (TaskId, ProcId, u64) {
        st.net.reindex();
        let st = &*st;
        let Self {
            tasks,
            offsets,
            parents,
            cands,
            heap,
            arrivals,
            link_slots,
            ..
        } = self;
        let mut entries = std::mem::take(heap).into_vec();
        entries.clear();
        entries.extend(
            cands
                .iter()
                .enumerate()
                .map(|(i, c)| Reverse((rank(tasks[c.slot as usize], c.proc, c.t), i as u32))),
        );
        *heap = BinaryHeap::from(entries);
        let won = 'pop: loop {
            let Reverse((_, i)) = heap.pop().expect("select: no candidates");
            let c = &mut cands[i as usize];
            let n = tasks[c.slot as usize];
            let ps =
                &parents[offsets[c.slot as usize] as usize..offsets[c.slot as usize + 1] as usize];
            // A candidate popped complete was reported when it completed.
            let complete_at_pop = c.next as usize == ps.len();
            loop {
                let Some(&a) = ps.get(c.next as usize) else {
                    if !complete_at_pop || ps.is_empty() {
                        on_complete(n, c.proc, c.t);
                    }
                    break 'pop (n, c.proc, c.t);
                };
                c.next += 1;
                // A local or zero-cost parent arrives at its finish, which
                // the bound already covers.
                if a.from == c.proc || a.cost == 0 {
                    continue;
                }
                *arrivals += 1;
                let arrival = st
                    .net
                    .probe_arrival_counted(a.from, c.proc, a.finish, a.cost, link_slots);
                if arrival <= c.t {
                    continue;
                }
                c.t = arrival;
                let key = rank(n, c.proc, arrival);
                if heap.peek().is_some_and(|Reverse(top)| *top < (key, i)) {
                    if c.next as usize == ps.len() {
                        on_complete(n, c.proc, c.t);
                    }
                    heap.push(Reverse((key, i)));
                    continue 'pop;
                }
            }
        };
        self.tasks.clear();
        self.offsets.truncate(1);
        self.parents.clear();
        self.cands.clear();
        let reg = dagsched_obs::global();
        reg.add(
            dagsched_obs::Metric::ApnProbeArrivals,
            std::mem::take(&mut self.arrivals),
        );
        reg.add(
            dagsched_obs::Metric::ApnLinkSlotsScanned,
            std::mem::take(&mut self.link_slots),
        );
        won
    }
}

/// Deterministic replay of a *full assignment*: every task has a processor
/// and a per-processor execution order (each order topologically consistent
/// with a global linearization). Rebuilds the schedule and all messages
/// from scratch. The **semantic reference** for [`ReplayEngine`], compiled
/// for the equivalence tests only; BSA itself goes through the engine.
///
/// Returns `None` if the orders deadlock (a cross-processor precedence
/// points against some processor-local order) — BSA's insert-by-sequence
/// discipline guarantees this never happens for its own calls.
#[cfg(test)]
pub(crate) fn replay(
    g: &TaskGraph,
    topo: &dagsched_platform::Topology,
    orders: &[Vec<TaskId>],
) -> Option<ApnState> {
    let procs = topo.num_procs();
    debug_assert_eq!(orders.len(), procs);
    let mut st = ApnState {
        s: Schedule::new(g.num_tasks(), procs),
        net: Network::new(topo.clone()),
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

/// One journaled commit of a [`ReplayEngine`]: the task, the processor it
/// went to, and the network's length *after* its parent messages were
/// committed (so op `i`'s messages are the stack positions
/// `log[i-1].msgs_end .. log[i].msgs_end`).
#[derive(Debug, Clone, Copy)]
struct ReplayOp {
    task: TaskId,
    proc: ProcId,
    msgs_end: u32,
}

/// Incremental `replay` with a trial-commit/rollback journal.
///
/// The engine owns an [`ApnState`] that always equals
/// `replay(g, topo, orders)` for the most recently applied `orders`.
/// [`ReplayEngine::apply`] moves the state to a *different* orders vector by
/// (1) simulating the commit sequence the trial would produce — pure
/// integer work over precedence structure, since replay's round-robin
/// commit order never consults timing — (2) rolling back the journal to the
/// longest common prefix with the live sequence, and (3) committing forward
/// from there. The engine is the network's only committer and commits an
/// op's messages right after the op's predecessors', so the messages of
/// the divergent suffix are exactly the top of the network's message
/// stack: rollback unplaces the suffix's tasks and truncates the stack to
/// the prefix's `msgs_end`. Both restore every `Track`'s interval set
/// exactly (tracks are canonically sorted, so equal sets are equal
/// states); the forward commits therefore see bit-for-bit the state a
/// from-scratch replay would, and the resulting schedule and messages are
/// byte-identical to `replay(g, topo, orders)`.
///
/// BSA calls this once per tentative migration: the cost is O(v + e) for
/// the sequence simulation plus work proportional to the divergent suffix,
/// instead of a full allocate-and-replay (which cloned the topology's p²
/// routing tables per candidate on top of recommitting every message).
pub(crate) struct ReplayEngine {
    st: ApnState,
    log: Vec<ReplayOp>,
    /// Scratch: the simulated commit sequence of the trial orders.
    seq: Vec<(TaskId, ProcId)>,
    /// Scratch: per-processor next-uncommitted index into `orders`.
    heads: Vec<usize>,
    /// Scratch: committed-task bitmap for the simulation.
    placed: Vec<bool>,
    /// Per-processor total task weight committed in the journal —
    /// maintained across applies alongside `log`, so together with the
    /// trial's per-row totals it yields the remaining-work makespan bound.
    committed_weight: Vec<u64>,
    /// Scratch: per-processor total task weight of the trial's rows.
    row_weight: Vec<u64>,
}

impl ReplayEngine {
    /// Engine over an empty state (no orders applied yet).
    pub fn new(g: &TaskGraph, env: &Env) -> ReplayEngine {
        let procs = env.procs();
        ReplayEngine {
            st: ApnState::new(g, env),
            log: Vec::with_capacity(g.num_tasks()),
            seq: Vec::with_capacity(g.num_tasks()),
            heads: vec![0; procs],
            placed: vec![false; g.num_tasks()],
            committed_weight: vec![0; procs],
            row_weight: vec![0; procs],
        }
    }

    /// The live state — valid for the last successfully applied orders.
    pub fn state(&self) -> &ApnState {
        &self.st
    }

    pub fn into_outcome(self) -> Outcome {
        self.st.into_outcome()
    }

    /// Simulate the commit sequence `replay` would produce for `orders`
    /// into `self.seq`. Returns `false` on deadlock (state untouched).
    fn simulate_sequence(&mut self, g: &TaskGraph, orders: &[Vec<TaskId>]) -> bool {
        let procs = orders.len();
        self.seq.clear();
        self.heads[..procs].fill(0);
        for n in g.tasks() {
            self.placed[n.index()] = false;
        }
        let mut remaining = g.num_tasks();
        while remaining > 0 {
            let mut progress = false;
            for pi in 0..procs {
                while let Some(&n) = orders[pi].get(self.heads[pi]) {
                    let ready = g.preds(n).iter().all(|&(q, _)| self.placed[q.index()]);
                    if !ready {
                        break;
                    }
                    self.seq.push((n, ProcId(pi as u32)));
                    self.placed[n.index()] = true;
                    self.heads[pi] += 1;
                    remaining -= 1;
                    progress = true;
                }
            }
            if !progress {
                return false;
            }
        }
        true
    }

    /// Move the live state to `replay(g, topo, orders)`. Returns `false`
    /// (leaving the state unchanged) iff the orders deadlock.
    pub fn apply(&mut self, g: &TaskGraph, orders: &[Vec<TaskId>]) -> bool {
        match self.apply_cut(g, orders, &Cutoff::none()) {
            ApplyOutcome::Done => true,
            ApplyOutcome::Deadlock => false,
            ApplyOutcome::Cut(_) => unreachable!("no cutoff given"),
        }
    }

    /// [`ReplayEngine::apply`] with BSA's dominance bounds pushed into the
    /// replay loop: the trial is abandoned (`Cut`) the moment it is
    /// *provably* rejectable — when the watched task commits later than
    /// `max_start`, or any task finishes after `max_finish`. This prunes
    /// the bulk of the work (most migration candidates fail on the watched
    /// task's own start, long before the schedule tail is rebuilt) while
    /// keeping decisions byte-identical to evaluating the full replay and
    /// comparing afterwards: a cut trial would have been rejected, and a
    /// `Done` trial's exact `(start, makespan)` are read off the state.
    ///
    /// After a `Cut` the live state is a half-built trial — a consistent
    /// journal prefix — and the next `apply*` call diffs against it as
    /// usual; callers must land on decided orders via [`ReplayEngine::apply`]
    /// before reading results.
    pub fn apply_cut(
        &mut self,
        g: &TaskGraph,
        orders: &[Vec<TaskId>],
        cutoff: &Cutoff,
    ) -> ApplyOutcome {
        if !self.simulate_sequence(g, orders) {
            return ApplyOutcome::Deadlock;
        }
        // Longest common prefix of the journal and the trial sequence.
        let mut k = 0usize;
        while k < self.log.len()
            && k < self.seq.len()
            && (self.log[k].task, self.log[k].proc) == self.seq[k]
        {
            k += 1;
        }
        // Roll back the divergent suffix in reverse commit order.
        if self.log.len() > k {
            let msgs_start = if k == 0 {
                0
            } else {
                self.log[k - 1].msgs_end as usize
            };
            let retired = (self.st.net.len() - msgs_start) as u64;
            if retired > 0 {
                let reg = dagsched_obs::global();
                reg.add(dagsched_obs::Metric::ApnMsgsRetired, retired);
                reg.incr(dagsched_obs::Metric::ApnBatchRetires);
                reg.hist(dagsched_obs::HistId::ApnRetireBatch)
                    .record(retired);
            }
            self.st.net.truncate(msgs_start);
            for op in &self.log[k..] {
                self.committed_weight[op.proc.index()] -= g.weight(op.task);
            }
            self.st
                .s
                .unplace_batch(self.log[k..].iter().map(|op| op.task));
            self.log.truncate(k);
        }
        // Commit forward from the divergence point.
        let mut outcome = ApplyOutcome::Done;
        // Effective bounds, tightened once the watched task commits (see
        // `Cutoff::best`). Until then, any op finishing on the watched
        // task's *target processor* bounds the watched start from below:
        // the append policy only ever grows a timeline's tail, and the
        // watched task lands after everything currently on it.
        let mut max_start = cutoff.max_start;
        let mut max_finish = cutoff.max_finish;
        if let Some((bs, _)) = cutoff.best {
            max_start = max_start.min(bs);
        }
        let mut watch_pending = cutoff.watch.is_some();
        // Probe-ahead: at any point of the forward replay the live state is
        // a prefix of the trial, and replay only *adds* occupations — so
        // probing the watched task's data-ready time (over its
        // already-committed parents, whose placements sit in the common
        // prefix) and its target timeline's tail yields lower bounds on
        // its final start. If even those break the bound, cut without
        // recommitting the rest. Checked up front and re-checked
        // periodically, because contention grows as the replay drains the
        // rows before the watched task's slot.
        let probe_watch_lb = |st: &ApnState| -> u64 {
            let (Some(w), Some(wp)) = (cutoff.watch, cutoff.watch_proc) else {
                return 0;
            };
            let mut lb = st.s.timeline(wp).ready_time();
            for &(q, c) in g.preds(w) {
                if lb > max_start {
                    break;
                }
                if let Some(pl) = st.s.placement(q) {
                    lb = lb.max(st.net.probe_arrival(pl.proc, wp, pl.finish, c));
                }
            }
            lb
        };
        if watch_pending && probe_watch_lb(&self.st) > max_start {
            return ApplyOutcome::Cut(CutReason::ProbeAhead);
        }
        // Remaining-work makespan bound: processor `r`'s uncommitted row
        // entries all run on `r` after its current (monotone) tail, so the
        // final makespan is at least `tail(r) + Σ remaining weights on r`.
        // Checked for every processor here — catching "this migration
        // overloads the target row" before a single op is recommitted —
        // and then in O(1) per committed op (only that op's processor's
        // term changes; the others' only shrink).
        if max_finish < u64::MAX {
            let procs = orders.len();
            for (r, rw) in self.row_weight[..procs].iter_mut().enumerate() {
                *rw = orders[r].iter().map(|&t| g.weight(t)).sum();
            }
            for r in 0..procs {
                let tail = self.st.s.timeline(ProcId(r as u32)).ready_time();
                if tail + (self.row_weight[r] - self.committed_weight[r]) > max_finish {
                    return ApplyOutcome::Cut(CutReason::RowWork);
                }
            }
        }
        let work_bound = max_finish < u64::MAX;
        for i in k..self.seq.len() {
            let (n, p) = self.seq[i];
            let st = &mut self.st;
            let drt = st.commit_parent_messages(g, n, p, &mut NullSink);
            let start = st.s.timeline(p).earliest_append(drt);
            let finish = start + g.weight(n);
            st.s.place(n, p, start, g.weight(n))
                .expect("append start is free");
            self.log.push(ReplayOp {
                task: n,
                proc: p,
                msgs_end: st.net.len() as u32,
            });
            self.committed_weight[p.index()] += g.weight(n);
            if finish > max_finish {
                outcome = ApplyOutcome::Cut(CutReason::Finish);
                break;
            }
            if work_bound
                && finish + (self.row_weight[p.index()] - self.committed_weight[p.index()])
                    > max_finish
            {
                outcome = ApplyOutcome::Cut(CutReason::RowWork);
                break;
            }
            if watch_pending {
                if Some(n) == cutoff.watch {
                    watch_pending = false;
                    if start > max_start {
                        outcome = ApplyOutcome::Cut(CutReason::WatchStart);
                        break;
                    }
                    // A tie on the watched start caps the makespan at the
                    // caller-computed tie bound.
                    if let Some((bs, tie_cap)) = cutoff.best {
                        if start == bs && tie_cap < max_finish {
                            max_finish = tie_cap;
                            // Re-run the remaining-work bound for every
                            // processor under the tightened finish bound
                            // (`row_weight` is only valid when the initial
                            // fill ran — guarded by the same flag).
                            if work_bound {
                                for r in 0..orders.len() {
                                    let tail = self.st.s.timeline(ProcId(r as u32)).ready_time();
                                    let rem = self.row_weight[r] - self.committed_weight[r];
                                    if tail + rem > max_finish {
                                        outcome = ApplyOutcome::Cut(CutReason::TieCap);
                                        break;
                                    }
                                }
                                if matches!(outcome, ApplyOutcome::Cut(_)) {
                                    break;
                                }
                            }
                        }
                    }
                } else if Some(p) == cutoff.watch_proc && finish > max_start {
                    outcome = ApplyOutcome::Cut(CutReason::TargetTail);
                    break;
                } else if (i - k) % 16 == 15 && probe_watch_lb(&self.st) > max_start {
                    outcome = ApplyOutcome::Cut(CutReason::ProbeAhead);
                    break;
                }
            }
        }
        dagsched_obs::global()
            .hist(dagsched_obs::HistId::ApnOccupancy)
            .record(self.st.net.len() as u64);
        debug_assert!(matches!(outcome, ApplyOutcome::Cut(_)) || self.log.len() == self.seq.len());
        outcome
    }
}

/// Result of a (possibly bounded) [`ReplayEngine`] apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ApplyOutcome {
    /// The live state now equals `replay(g, topo, orders)`.
    Done,
    /// The orders deadlock; the live state is unchanged.
    Deadlock,
    /// A cutoff bound proved the trial rejectable; the live state is a
    /// consistent partial prefix of the trial. Carries *which* bound fired
    /// — purely observational (BSA maps it onto
    /// [`dagsched_obs::TrialVerdict`]); every reason is an equally valid
    /// proof of rejection.
    Cut(CutReason),
}

/// Which [`Cutoff`] bound proved a trial rejectable (see
/// [`ApplyOutcome::Cut`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CutReason {
    /// The up-front or periodic probe-ahead lower bound on the watched
    /// task's start broke `max_start`.
    ProbeAhead,
    /// A processor's tail plus its remaining row work broke `max_finish`.
    RowWork,
    /// A committed op finished past `max_finish`.
    Finish,
    /// The watched task committed with a start past `max_start`.
    WatchStart,
    /// The start-tie makespan cap was provably unreachable.
    TieCap,
    /// An op on the watched task's target processor finished past
    /// `max_start`, pushing the watched append start beyond the bound.
    TargetTail,
}

/// Early-rejection bounds for [`ReplayEngine::apply_cut`]. Every bound is a
/// *proof of rejection* under BSA's dominance rule — cutting through them
/// never changes a decision, it only skips work a full replay would have
/// spent on a doomed trial.
pub(crate) struct Cutoff {
    /// Cut as soon as this task commits with a start beyond `max_start`.
    pub watch: Option<TaskId>,
    /// The processor the watched task migrates to: any earlier op
    /// finishing past `max_start` there pushes the watched task's append
    /// start past the bound (timeline tails are monotone during replay).
    pub watch_proc: Option<ProcId>,
    pub max_start: u64,
    /// Cut as soon as any task finishes beyond this bound.
    pub max_finish: u64,
    /// The incumbent candidate's `(start, finish cap on a start tie)`, if
    /// any: a trial whose watched start exceeds the incumbent's loses
    /// outright (the selection key is lexicographic on the start first),
    /// and a trial *tying* the start is capped at the given finish bound —
    /// the caller sets it to the incumbent's makespan when this trial wins
    /// pure ties (smaller tie-break id) and makespan − 1 when it loses
    /// them, so evaluation order never affects the winner.
    pub best: Option<(u64, u64)>,
}

impl Cutoff {
    /// No bounds: `apply_cut` degenerates to a full apply.
    pub fn none() -> Cutoff {
        Cutoff {
            watch: None,
            watch_proc: None,
            max_start: u64::MAX,
            max_finish: u64::MAX,
            best: None,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for APN algorithm tests.

    use super::ApnState;
    use crate::{AlgoClass, Env, Outcome, Scheduler};
    use dagsched_graph::{GraphBuilder, TaskGraph, TaskId};
    use dagsched_platform::{ProcId, Topology, TopologyKind};
    use dagsched_suites::rgnos::{self, RgnosParams};

    pub use crate::bnp::testutil::{chain4, classic_nine, independent};

    /// RGNOS graphs at CCR 0.1/1/10, each followed by copies with every
    /// task weight and every edge cost set to 4 and to 1, so that ties in
    /// both the contention-free bound and the exact start occur. The
    /// inputs of the pruned-scan equivalence tests of MH and DLS-APN.
    pub fn equivalence_graphs() -> Vec<TaskGraph> {
        let mut graphs = Vec::new();
        for (v, ccr, seed) in [(60, 0.1, 1), (80, 1.0, 2), (100, 10.0, 3)] {
            let g = rgnos::generate(RgnosParams::new(v, ccr, 3, seed));
            graphs.push(g.clone());
            for w in [4, 1] {
                let mut b = GraphBuilder::new();
                for _ in g.tasks() {
                    b.add_task(w);
                }
                for e in g.edges() {
                    b.add_edge(e.src, e.dst, w).unwrap();
                }
                graphs.push(b.build().unwrap());
            }
        }
        graphs
    }

    /// The exact start of `n` on `p` by definition: `p`'s ready time or
    /// the latest probed parent arrival, whichever is later. The exhaustive
    /// references of MH and DLS-APN probe every candidate with it.
    pub fn exhaustive_est(st: &ApnState, g: &TaskGraph, n: TaskId, p: ProcId) -> u64 {
        g.preds(n)
            .iter()
            .fold(st.s.timeline(p).ready_time(), |t, &(q, c)| {
                let pl = st.s.placement(q).expect("parent must be placed");
                t.max(st.net.probe_arrival(pl.proc, p, pl.finish, c))
            })
    }

    pub fn run(algo: &dyn Scheduler, g: &TaskGraph, topo: Topology) -> Outcome {
        assert_eq!(algo.class(), AlgoClass::Apn);
        let out = algo
            .schedule(g, &Env::apn(topo))
            .expect("APN scheduling must succeed");
        out.validate(g)
            .unwrap_or_else(|e| panic!("{} invalid: {e}", algo.name()));
        assert!(
            out.network.is_some(),
            "APN algorithms must expose their message schedule"
        );
        out
    }

    /// Contract every APN algorithm must meet, across several topologies.
    pub fn standard_contract(algo: &dyn Scheduler) {
        for topo in [
            Topology::fully_connected(4).unwrap(),
            Topology::ring(4).unwrap(),
            Topology::chain(3).unwrap(),
            Topology::mesh(2, 2).unwrap(),
            Topology::hypercube(2).unwrap(),
            Topology::star(4).unwrap(),
        ] {
            // Heavy-comm chain: one processor, Σw.
            let g = chain4();
            let out = run(algo, &g, topo.clone());
            assert_eq!(
                out.schedule.makespan(),
                20,
                "{} on {:?}",
                algo.name(),
                topo.kind()
            );

            // Independent tasks spread (one per processor).
            let g = independent(topo.num_procs(), 7);
            let out = run(algo, &g, topo.clone());
            assert_eq!(
                out.schedule.makespan(),
                7,
                "{} on {:?}",
                algo.name(),
                topo.kind()
            );

            // Classic nine: valid and bounded.
            let g = classic_nine();
            let out = run(algo, &g, topo.clone());
            let m = out.schedule.makespan();
            assert!(
                (12..=60).contains(&m),
                "{} on {:?}: {m}",
                algo.name(),
                topo.kind()
            );

            // Determinism.
            let again = run(algo, &g, topo.clone());
            for n in g.tasks() {
                assert_eq!(
                    out.schedule.placement(n),
                    again.schedule.placement(n),
                    "{} nondeterministic on {:?}",
                    algo.name(),
                    topo.kind()
                );
            }

            // Single processor degenerate case.
            let solo = Topology::fully_connected(1).unwrap();
            let out = run(algo, &g, solo);
            assert_eq!(out.schedule.makespan(), g.total_work(), "{}", algo.name());

            // A `bnp` machine is routed as the fully connected network of
            // its processors: the same placements and messages.
            let full = topo.kind() == TopologyKind::FullyConnected;
            for p in std::iter::once(1).chain(full.then(|| topo.num_procs())) {
                let Ok(on_bnp) = algo.schedule(&g, &Env::bnp(p));
                let on_full = run(algo, &g, Topology::fully_connected(p).unwrap());
                assert_eq!(
                    on_bnp.digest(),
                    on_full.digest(),
                    "{} on bnp:{p}",
                    algo.name()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::GraphBuilder;
    use dagsched_platform::Topology;

    #[test]
    fn replay_simple_two_proc_split() {
        // a(2) →(5) b(3): a on P0, b on P1 over one link.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(3);
        gb.add_edge(a, b, 5).unwrap();
        let g = gb.build().unwrap();
        let topo = Topology::chain(2).unwrap();
        let orders = vec![vec![a], vec![b]];
        let st = replay(&g, &topo, &orders).unwrap();
        assert_eq!(st.s.start_of(b), Some(7)); // 2 + one 5-unit hop
        assert!(st.s.validate_apn(&g, &st.net).is_ok());
    }

    #[test]
    fn replay_detects_deadlock() {
        // Two tasks, a → b, but b ordered before a on the same processor.
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let b = gb.add_task(1);
        gb.add_edge(a, b, 1).unwrap();
        let g = gb.build().unwrap();
        let topo = Topology::fully_connected(1).unwrap();
        let orders = vec![vec![b, a]];
        assert!(replay(&g, &topo, &orders).is_none());
    }

    #[test]
    fn engine_apply_matches_replay_from_scratch() {
        // Drive the engine through a chain of orders edits (including
        // reverting) and check placements AND messages against a fresh
        // replay after every apply.
        let g = testutil::classic_nine();
        let topo = Topology::chain(3).unwrap();
        let env = Env::apn(topo.clone());
        let seq: Vec<TaskId> = g.topo_order().to_vec();
        let mut engine = ReplayEngine::new(&g, &env);

        let mut orders: Vec<Vec<TaskId>> = vec![seq.clone(), Vec::new(), Vec::new()];
        let mut trials: Vec<Vec<Vec<TaskId>>> = vec![orders.clone()];
        // Move a few tasks around, then back.
        for &(n, from, to) in &[(8u32, 0usize, 1usize), (5, 0, 2), (8, 1, 0), (3, 0, 1)] {
            let n = TaskId(n);
            let pos = orders[from].iter().position(|&t| t == n).unwrap();
            orders[from].remove(pos);
            let at = orders[to]
                .iter()
                .position(|&t| t.0 > n.0)
                .unwrap_or(orders[to].len());
            orders[to].insert(at, n);
            trials.push(orders.clone());
        }
        for trial in &trials {
            assert!(engine.apply(&g, trial));
            let reference = replay(&g, &topo, trial).expect("orders are consistent");
            for t in g.tasks() {
                assert_eq!(
                    engine.state().s.placement(t),
                    reference.s.placement(t),
                    "placement of {t} diverged"
                );
            }
            // The engine commits in replay's order, so even the stacks'
            // order and hop arenas agree.
            let (got, want) = (&engine.state().net, &reference.net);
            assert_eq!(
                got.messages(),
                want.messages(),
                "message schedules diverged"
            );
            assert_eq!(got.all_hops(), want.all_hops(), "hop arenas diverged");
        }
    }

    #[test]
    fn engine_rejects_deadlock_and_keeps_state() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(1);
        let b = gb.add_task(1);
        gb.add_edge(a, b, 1).unwrap();
        let g = gb.build().unwrap();
        let env = Env::apn(Topology::fully_connected(1).unwrap());
        let mut engine = ReplayEngine::new(&g, &env);
        assert!(engine.apply(&g, &[vec![a, b]]));
        let before = engine.state().s.makespan();
        assert!(!engine.apply(&g, &[vec![b, a]]));
        assert_eq!(engine.state().s.makespan(), before, "state must be intact");
        assert_eq!(engine.state().s.proc_of(a), Some(ProcId(0)));
    }

    #[test]
    fn probe_matches_commit_for_single_parent() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(3);
        gb.add_edge(a, b, 5).unwrap();
        let g = gb.build().unwrap();
        let env = Env::apn(Topology::chain(3).unwrap());
        let mut st = ApnState::new(&g, &env);
        st.s.place(a, ProcId(0), 0, 2).unwrap();
        // A rank that puts P2 first makes the kernel return P2's exact start.
        let mut probes = BestFirst::new();
        probes.add_task(&st, &g, b);
        let (n, p, probed) = probes.select(&mut st, |_, p, t| (p != ProcId(2), t), |_, _, _| {});
        assert_eq!((n, p), (b, ProcId(2)));
        let drt = st.commit_parent_messages(&g, b, ProcId(2), &mut NullSink);
        assert_eq!(probed, drt); // empty network: two hops of 5 → 12
        assert_eq!(drt, 12);
    }

    #[test]
    fn commit_skips_local_and_zero_cost_edges() {
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(2);
        let b = gb.add_task(2);
        let c = gb.add_task(3);
        gb.add_edge(a, c, 9).unwrap();
        gb.add_edge(b, c, 0).unwrap();
        let g = gb.build().unwrap();
        let env = Env::apn(Topology::chain(2).unwrap());
        let mut st = ApnState::new(&g, &env);
        st.s.place(a, ProcId(0), 0, 2).unwrap();
        st.s.place(b, ProcId(1), 0, 2).unwrap();
        // c on P0: a local (no message), b remote but zero-cost (no message).
        let drt = st.commit_parent_messages(&g, c, ProcId(0), &mut NullSink);
        assert_eq!(drt, 2);
        assert!(st.net.is_empty());
    }
}
