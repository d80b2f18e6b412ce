//! Typed scheduler trace events.
//!
//! One variant per decision kind named in the instrumentation contract:
//! task selection (with the priority key that won), placement probes and
//! commits (with hole-vs-append), UNC cluster merges, APN message routing,
//! BSA trial verdicts (*which* bound cut a rejected trial), branch-and-
//! bound expansion/pruning (per prune bound), and incremental-engine
//! cone-repair extents.
//!
//! Events are plain `Copy` data carrying **no timestamps**: the logical
//! step stamp is the event's position in the sink's stream. All payload
//! fields are ids and schedule times (graph time units), both of which are
//! deterministic, so a serialized trace is byte-identical across runs and
//! thread counts.

/// Why a BSA migration trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialVerdict {
    /// Trial replay completed and improved the incumbent key; it became
    /// the migration candidate.
    Accepted,
    /// Trial replay completed but did not beat the incumbent key.
    Dominated,
    /// Cut up front: the probe-ahead lower bound on the watched task's
    /// start already met the cutoff.
    CutProbeAhead,
    /// Cut by the remaining-row-work makespan bound (up-front or per-op).
    CutRowWork,
    /// Cut because a replayed task finished past `max_finish`.
    CutFinish,
    /// Cut because the watched task started past `max_start`.
    CutWatchStart,
    /// Cut by the tie-cap re-check (equal-start tiebreak cannot win).
    CutTieCap,
    /// Cut by the destination-processor tail bound or the periodic
    /// probe-ahead re-check.
    CutTargetTail,
    /// Replay deadlocked (the trial order is infeasible).
    Deadlock,
}

impl TrialVerdict {
    pub fn name(self) -> &'static str {
        match self {
            TrialVerdict::Accepted => "accepted",
            TrialVerdict::Dominated => "dominated",
            TrialVerdict::CutProbeAhead => "cut-probe-ahead",
            TrialVerdict::CutRowWork => "cut-row-work",
            TrialVerdict::CutFinish => "cut-finish",
            TrialVerdict::CutWatchStart => "cut-watch-start",
            TrialVerdict::CutTieCap => "cut-tie-cap",
            TrialVerdict::CutTargetTail => "cut-target-tail",
            TrialVerdict::Deadlock => "deadlock",
        }
    }
}

/// Which test pruned a branch-and-bound node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneBound {
    /// `lower_bound(state) >= incumbent` — the bound test.
    LowerBound,
    /// The state's canonical signature was already explored.
    Duplicate,
}

impl PruneBound {
    pub fn name(self) -> &'static str {
        match self {
            PruneBound::LowerBound => "lower-bound",
            PruneBound::Duplicate => "duplicate",
        }
    }
}

/// One scheduler decision. See the module docs for the determinism
/// contract; see [`Event::name`]/[`Event::args`] for the stable
/// serialization used by the Chrome-trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A task won the selection step. `key`/`tie` are the (algorithm-
    /// specific) primary priority and tie-break values it won with.
    TaskSelected { task: u32, key: u64, tie: u64 },
    /// A candidate processor was probed for a start slot: one per start
    /// time the scheduler computes in full. A candidate a bound rules out,
    /// or one whose parent arrivals were evaluated only in part because it
    /// stopped being the best candidate (MH's best-first probing), emits
    /// none.
    PlacementProbed { task: u32, proc: u32, start: u64 },
    /// A placement was committed. `hole` is true when the slot was an
    /// insertion before the processor's tail (vs a plain append).
    PlacementCommitted {
        task: u32,
        proc: u32,
        start: u64,
        finish: u64,
        hole: bool,
    },
    /// UNC: a task opened a fresh cluster.
    ClusterOpened { task: u32, cluster: u32 },
    /// UNC: a task merged into an existing cluster at `start`.
    ClusterMerged { task: u32, cluster: u32, start: u64 },
    /// UNC: the best merge candidate was rejected; `dsrw` marks a
    /// DSRW-guard rejection (merge would delay the dominant sequence)
    /// as opposed to a plain no-gain rejection.
    MergeRejected { task: u32, cluster: u32, dsrw: bool },
    /// APN: a message from `src` (on processor `from`) to `dst` (on
    /// processor `to`) was committed onto the network, arriving at
    /// `arrival`.
    MessageRouted {
        src: u32,
        dst: u32,
        from: u32,
        to: u32,
        arrival: u64,
    },
    /// BSA: one migration trial of `task` from processor `from` to
    /// `to` ended with `verdict`.
    BsaTrial {
        task: u32,
        from: u32,
        to: u32,
        verdict: TrialVerdict,
    },
    /// Incremental dyn-levels engine: placing `task` repaired `fwd`
    /// nodes forward (AEST cone) and `bwd` nodes backward (ALST cone).
    ConeRepaired { task: u32, fwd: u32, bwd: u32 },
    /// Branch-and-bound expanded a node at `depth` placed tasks.
    BnbExpanded { depth: u32 },
    /// Branch-and-bound pruned a node at `depth` by `bound`.
    BnbPruned { depth: u32, bound: PruneBound },
}

use crate::chrome::ArgVal;

impl Event {
    /// Stable event name for serialized traces.
    pub fn name(&self) -> &'static str {
        match self {
            Event::TaskSelected { .. } => "task_selected",
            Event::PlacementProbed { .. } => "placement_probed",
            Event::PlacementCommitted { .. } => "placement_committed",
            Event::ClusterOpened { .. } => "cluster_opened",
            Event::ClusterMerged { .. } => "cluster_merged",
            Event::MergeRejected { .. } => "merge_rejected",
            Event::MessageRouted { .. } => "message_routed",
            Event::BsaTrial { .. } => "bsa_trial",
            Event::ConeRepaired { .. } => "cone_repaired",
            Event::BnbExpanded { .. } => "bnb_expanded",
            Event::BnbPruned { .. } => "bnb_pruned",
        }
    }

    /// Stable `(key, value)` argument list for serialized traces, in a
    /// fixed order per variant.
    pub fn args(&self) -> Vec<(&'static str, ArgVal)> {
        match *self {
            Event::TaskSelected { task, key, tie } => vec![
                ("task", ArgVal::U(task as u64)),
                ("key", ArgVal::U(key)),
                ("tie", ArgVal::U(tie)),
            ],
            Event::PlacementProbed { task, proc, start } => vec![
                ("task", ArgVal::U(task as u64)),
                ("proc", ArgVal::U(proc as u64)),
                ("start", ArgVal::U(start)),
            ],
            Event::PlacementCommitted {
                task,
                proc,
                start,
                finish,
                hole,
            } => vec![
                ("task", ArgVal::U(task as u64)),
                ("proc", ArgVal::U(proc as u64)),
                ("start", ArgVal::U(start)),
                ("finish", ArgVal::U(finish)),
                ("hole", ArgVal::B(hole)),
            ],
            Event::ClusterOpened { task, cluster } => vec![
                ("task", ArgVal::U(task as u64)),
                ("cluster", ArgVal::U(cluster as u64)),
            ],
            Event::ClusterMerged {
                task,
                cluster,
                start,
            } => vec![
                ("task", ArgVal::U(task as u64)),
                ("cluster", ArgVal::U(cluster as u64)),
                ("start", ArgVal::U(start)),
            ],
            Event::MergeRejected {
                task,
                cluster,
                dsrw,
            } => vec![
                ("task", ArgVal::U(task as u64)),
                ("cluster", ArgVal::U(cluster as u64)),
                ("dsrw", ArgVal::B(dsrw)),
            ],
            Event::MessageRouted {
                src,
                dst,
                from,
                to,
                arrival,
            } => vec![
                ("src", ArgVal::U(src as u64)),
                ("dst", ArgVal::U(dst as u64)),
                ("from", ArgVal::U(from as u64)),
                ("to", ArgVal::U(to as u64)),
                ("arrival", ArgVal::U(arrival)),
            ],
            Event::BsaTrial {
                task,
                from,
                to,
                verdict,
            } => vec![
                ("task", ArgVal::U(task as u64)),
                ("from", ArgVal::U(from as u64)),
                ("to", ArgVal::U(to as u64)),
                ("verdict", ArgVal::S(verdict.name())),
            ],
            Event::ConeRepaired { task, fwd, bwd } => vec![
                ("task", ArgVal::U(task as u64)),
                ("fwd", ArgVal::U(fwd as u64)),
                ("bwd", ArgVal::U(bwd as u64)),
            ],
            Event::BnbExpanded { depth } => vec![("depth", ArgVal::U(depth as u64))],
            Event::BnbPruned { depth, bound } => vec![
                ("depth", ArgVal::U(depth as u64)),
                ("bound", ArgVal::S(bound.name())),
            ],
        }
    }
}
