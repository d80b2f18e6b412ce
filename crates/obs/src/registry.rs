//! Process-wide counter/histogram registry.
//!
//! Metrics form a **fixed enum** (no string interning, no hashing): a
//! counter update is an array index plus one relaxed atomic add on a
//! per-thread shard, and reading is a sum over shards. Hot loops should
//! still prefer plain local `u64`s flushed once at the end of a run —
//! the instrumented call sites in `ws`, `core` and `optimal` follow that
//! discipline — but the registry is cheap enough to hit directly from
//! per-placement (and coarser) code.
//!
//! The registry is deliberately *not* part of any determinism contract:
//! totals depend on thread interleaving (e.g. which worker ran which
//! item, or how far a pool got before a panic stopped it). Committed
//! artifacts only ever include trace events ([`crate::Event`]), never
//! registry totals.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

use crate::hist::LogHist;

/// Every process-wide counter. Keep names stable: `taskbench profile`
/// prints them and docs reference them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// `ws`: steal sweeps attempted by idle workers. The pool has one
    /// shared queue and nothing to steal, so this always reads 0; the name
    /// stays for readers that still print it.
    WsStealAttempts,
    /// `ws`: steal sweeps that yielded a job. Always 0, like
    /// [`Metric::WsStealAttempts`].
    WsStealHits,
    /// `ws`: idle backoff sleeps (parks). The pool never parks (a worker
    /// exits once the queue is empty), so this always reads 0; the name
    /// stays for readers that still print it.
    WsParks,
    /// `ws`: jobs executed across all workers.
    WsJobs,
    /// `IndexedHeap`: insertions.
    HeapInserts,
    /// `IndexedHeap`: max-pops.
    HeapPops,
    /// `IndexedHeap`: rekey/increase/decrease operations.
    HeapRekeys,
    /// `IndexedHeap`: removals by handle.
    HeapRemoves,
    /// `DynLevelsEngine`: placements applied (cone repairs).
    EngineRepairs,
    /// `DynLevelsEngine`: total nodes drained by forward (AEST) repairs.
    EngineFwdNodes,
    /// `DynLevelsEngine`: total nodes drained by backward (ALST) repairs.
    EngineBwdNodes,
    /// APN network: messages committed onto the network.
    ApnMsgsCommitted,
    /// APN network: messages rolled back by BSA's replay engine.
    ApnMsgsRetired,
    /// APN network: replay-engine rollbacks that retired a message.
    ApnBatchRetires,
    /// MH and DLS-APN: parent arrivals probed while choosing placements,
    /// added once per MH step and once per DLS-APN run (an exhaustive
    /// scan probes `p` per parent edge of every candidate task).
    ApnProbeArrivals,
    /// MH and DLS-APN: link slots and block summaries the probes of
    /// `apn.probe_arrivals` visited, added alongside it.
    ApnLinkSlotsScanned,
    /// MCP (`PRIO=alap` static order): ALAP values pulled by the
    /// comparisons that order tied-ALAP nodes, added once per run.
    McpAlapListElems,
    /// BSA: migration trials replayed.
    BsaTrials,
    /// BSA: trials cut early by a rejection bound.
    BsaTrialsCut,
    /// BSA: trials accepted as migrations.
    BsaTrialsAccepted,
    /// B&B: nodes expanded.
    BnbExpanded,
    /// B&B: nodes pruned by the lower-bound test.
    BnbPrunedBound,
    /// B&B: nodes pruned as duplicate signatures.
    BnbPrunedDuplicate,
    /// Runner: experiment cells executed.
    RunnerCells,
    /// serve: schedule requests answered from the wire cache tier or
    /// admitted to a scheduling slot.
    ServeRequests,
    /// serve: requests answered with a structured error.
    ServeErrors,
    /// serve: requests rejected because every scheduling slot was busy
    /// and the wait for one was full (retry-after sent).
    ServeQueueRejects,
    /// serve: schedule cache hits, in either tier.
    ServeCacheHits,
    /// serve: schedule cache misses (schedule computed and inserted).
    ServeCacheMisses,
    /// serve: structural-tier cache entries evicted by the per-shard LRU.
    ServeCacheEvictions,
    /// serve: cache hits answered from the wire tier (raw request bytes)
    /// on the connection thread; a subset of `serve.cache_hits`.
    ServeCacheWireHits,
}

/// All metrics, in declaration (= print) order.
pub const METRICS: [Metric; 31] = [
    Metric::WsStealAttempts,
    Metric::WsStealHits,
    Metric::WsParks,
    Metric::WsJobs,
    Metric::HeapInserts,
    Metric::HeapPops,
    Metric::HeapRekeys,
    Metric::HeapRemoves,
    Metric::EngineRepairs,
    Metric::EngineFwdNodes,
    Metric::EngineBwdNodes,
    Metric::ApnMsgsCommitted,
    Metric::ApnMsgsRetired,
    Metric::ApnBatchRetires,
    Metric::ApnProbeArrivals,
    Metric::ApnLinkSlotsScanned,
    Metric::McpAlapListElems,
    Metric::BsaTrials,
    Metric::BsaTrialsCut,
    Metric::BsaTrialsAccepted,
    Metric::BnbExpanded,
    Metric::BnbPrunedBound,
    Metric::BnbPrunedDuplicate,
    Metric::RunnerCells,
    Metric::ServeRequests,
    Metric::ServeErrors,
    Metric::ServeQueueRejects,
    Metric::ServeCacheHits,
    Metric::ServeCacheMisses,
    Metric::ServeCacheEvictions,
    Metric::ServeCacheWireHits,
];

impl Metric {
    pub fn name(self) -> &'static str {
        match self {
            Metric::WsStealAttempts => "ws.steal_attempts",
            Metric::WsStealHits => "ws.steal_hits",
            Metric::WsParks => "ws.parks",
            Metric::WsJobs => "ws.jobs",
            Metric::HeapInserts => "heap.inserts",
            Metric::HeapPops => "heap.pops",
            Metric::HeapRekeys => "heap.rekeys",
            Metric::HeapRemoves => "heap.removes",
            Metric::EngineRepairs => "engine.repairs",
            Metric::EngineFwdNodes => "engine.fwd_nodes",
            Metric::EngineBwdNodes => "engine.bwd_nodes",
            Metric::ApnMsgsCommitted => "apn.msgs_committed",
            Metric::ApnMsgsRetired => "apn.msgs_retired",
            Metric::ApnBatchRetires => "apn.batch_retires",
            Metric::ApnProbeArrivals => "apn.probe_arrivals",
            Metric::ApnLinkSlotsScanned => "apn.link_slots_scanned",
            Metric::McpAlapListElems => "mcp.alap_list_elems",
            Metric::BsaTrials => "bsa.trials",
            Metric::BsaTrialsCut => "bsa.trials_cut",
            Metric::BsaTrialsAccepted => "bsa.trials_accepted",
            Metric::BnbExpanded => "bnb.nodes_expanded",
            Metric::BnbPrunedBound => "bnb.pruned_bound",
            Metric::BnbPrunedDuplicate => "bnb.pruned_duplicate",
            Metric::RunnerCells => "runner.cells",
            Metric::ServeRequests => "serve.requests",
            Metric::ServeErrors => "serve.errors",
            Metric::ServeQueueRejects => "serve.queue_rejects",
            Metric::ServeCacheHits => "serve.cache_hits",
            Metric::ServeCacheMisses => "serve.cache_misses",
            Metric::ServeCacheEvictions => "serve.cache_evictions",
            Metric::ServeCacheWireHits => "serve.cache_wire_hits",
        }
    }
}

/// Every process-wide histogram (log₂ buckets; see [`crate::hist`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// `DynLevelsEngine`: nodes drained per forward (AEST) repair.
    EngineFwdCone,
    /// `DynLevelsEngine`: nodes drained per backward (ALST) repair.
    EngineBwdCone,
    /// APN network: live messages, sampled after each replay-engine apply.
    ApnOccupancy,
    /// APN network: messages retired per replay-engine rollback.
    ApnRetireBatch,
    /// Runner: per-cell schedule+validate duration, microseconds.
    RunnerCellUs,
    /// serve: requests waiting for a scheduling slot, the admitted one
    /// included, sampled at each admit.
    ServeQueueDepth,
}

/// All histograms, in declaration (= print) order.
pub const HISTS: [HistId; 6] = [
    HistId::EngineFwdCone,
    HistId::EngineBwdCone,
    HistId::ApnOccupancy,
    HistId::ApnRetireBatch,
    HistId::RunnerCellUs,
    HistId::ServeQueueDepth,
];

impl HistId {
    pub fn name(self) -> &'static str {
        match self {
            HistId::EngineFwdCone => "engine.fwd_cone",
            HistId::EngineBwdCone => "engine.bwd_cone",
            HistId::ApnOccupancy => "apn.occupancy",
            HistId::ApnRetireBatch => "apn.retire_batch",
            HistId::RunnerCellUs => "runner.cell_us",
            HistId::ServeQueueDepth => "serve.queue_depth",
        }
    }
}

const SHARDS: usize = 8;

#[repr(align(64))]
struct Shard(AtomicU64);

thread_local! {
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// This thread's shard slot, assigned round-robin on first use so
/// concurrent writers spread across cache lines.
#[inline]
fn shard_index() -> usize {
    SHARD_IDX.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            v
        } else {
            // relaxed-ok: round-robin slot assignment only needs uniqueness
            // of the fetched value, not ordering with other memory.
            let v = NEXT_SHARD.fetch_add(1, Relaxed) & (SHARDS - 1);
            c.set(v);
            v
        }
    })
}

/// A sharded relaxed counter: adds touch one cache-line-padded shard,
/// reads sum all of them.
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    pub const fn new() -> Self {
        Counter {
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed-ok: monotone per-shard tally; no other memory is
        // published through it, and get() only promises exactness after
        // writer threads are joined.
        self.shards[shard_index()].0.fetch_add(n, Relaxed);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        // relaxed-ok: snapshot sum over shards; exact once writers have
        // quiesced (joined), approximate while they run — by design.
        self.shards.iter().map(|s| s.0.load(Relaxed)).sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// The registry: one [`Counter`] per [`Metric`], one [`LogHist`] per
/// [`HistId`]. Usually accessed through [`global()`]; tests may build
/// private instances.
pub struct Registry {
    counters: [Counter; METRICS.len()],
    hists: [LogHist; HISTS.len()],
}

impl Registry {
    pub const fn new() -> Self {
        Registry {
            counters: [const { Counter::new() }; METRICS.len()],
            hists: [const { LogHist::new() }; HISTS.len()],
        }
    }

    #[inline]
    pub fn add(&self, m: Metric, n: u64) {
        self.counters[m as usize].add(n);
    }

    #[inline]
    pub fn incr(&self, m: Metric) {
        self.add(m, 1);
    }

    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize].get()
    }

    #[inline]
    pub fn hist(&self, h: HistId) -> &LogHist {
        &self.hists[h as usize]
    }

    /// Point-in-time copy of every counter (histograms are read live via
    /// [`Registry::hist`]; they have no cheap snapshot semantics).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counts: METRICS.map(|m| self.get(m)),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// A point-in-time copy of all counter totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    counts: [u64; METRICS.len()],
}

impl Snapshot {
    pub fn get(&self, m: Metric) -> u64 {
        self.counts[m as usize]
    }

    /// Per-metric difference vs an earlier snapshot (saturating).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut counts = self.counts;
        for (c, e) in counts.iter_mut().zip(earlier.counts.iter()) {
            *c = c.saturating_sub(*e);
        }
        Snapshot { counts }
    }

    /// `(name, value)` rows for every non-zero counter, in declaration
    /// order.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        METRICS
            .iter()
            .filter(|&&m| self.get(m) != 0)
            .map(|&m| (m.name(), self.get(m)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_round_trip() {
        let r = Registry::new();
        r.add(Metric::HeapInserts, 3);
        r.incr(Metric::HeapInserts);
        assert_eq!(r.get(Metric::HeapInserts), 4);
        assert_eq!(r.get(Metric::HeapPops), 0);
    }

    #[test]
    fn snapshot_since_subtracts() {
        let r = Registry::new();
        r.add(Metric::WsJobs, 5);
        let a = r.snapshot();
        r.add(Metric::WsJobs, 2);
        r.incr(Metric::RunnerCells);
        let d = r.snapshot().since(&a);
        assert_eq!(d.get(Metric::WsJobs), 2);
        assert_eq!(d.get(Metric::RunnerCells), 1);
        assert_eq!(d.nonzero(), vec![("ws.jobs", 2), ("runner.cells", 1)]);
    }

    #[test]
    fn counters_sum_across_threads() {
        // TASKBENCH_STRESS amplifies both axes for sanitizer runs.
        let stress = crate::env::stress_factor();
        let (threads, iters) = (4 * stress as u64, 1000 * stress as u64);
        let r = std::sync::Arc::new(Registry::new());
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        r.incr(Metric::WsStealAttempts);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(r.get(Metric::WsStealAttempts), threads * iters);
    }

    #[test]
    fn serve_metric_names_are_pinned() {
        let serve: Vec<&str> = METRICS
            .iter()
            .map(|m| m.name())
            .filter(|n| n.starts_with("serve."))
            .collect();
        assert_eq!(
            serve,
            [
                "serve.requests",
                "serve.errors",
                "serve.queue_rejects",
                "serve.cache_hits",
                "serve.cache_misses",
                "serve.cache_evictions",
                "serve.cache_wire_hits",
            ]
        );
    }

    #[test]
    fn metric_order_matches_discriminants() {
        for (i, m) in METRICS.iter().enumerate() {
            assert_eq!(*m as usize, i, "{}", m.name());
        }
        for (i, h) in HISTS.iter().enumerate() {
            assert_eq!(*h as usize, i, "{}", h.name());
        }
    }
}
