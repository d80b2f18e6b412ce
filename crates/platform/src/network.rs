//! [`Network`]: mutable link-schedule state for APN message scheduling.
//!
//! APN algorithms must decide *when each message crosses each link*. The
//! model (shared by the MH and BSA publications) is store-and-forward with
//! constant message size:
//!
//! * a message for edge `u → v` with cost `c` becomes available when `u`
//!   finishes;
//! * it traverses the links of a route one at a time, occupying each link
//!   for exactly `c` time units;
//! * a link carries at most one message at a time (undirected contention);
//! * hop `k+1` cannot start before hop `k` finished, but may wait in a
//!   buffer indefinitely (no buffer limits);
//! * messages may be inserted into idle windows between already-scheduled
//!   transmissions (insertion policy, matching the task-side `Track`).
//!
//! `Network` supports the *probe/commit* pattern every APN heuristic needs:
//! [`Network::probe_arrival`] answers "when would the data get there?"
//! without mutating anything, and [`Network::commit`] performs the identical
//! computation while reserving link time. BSA additionally rolls messages
//! back ([`Network::truncate`]) and re-commits them when it migrates tasks.
//!
//! ## Storage
//!
//! Routes come precomputed from [`Topology::route`] (flat CSR slices), so a
//! probe walks its hops with zero allocation and no per-hop neighbour
//! lookups. The committed messages are a **stack in commit order**: a
//! message's [`MsgId`] is its position, and the hops of all messages live
//! back to back in one arena, each message recording its range
//! ([`Network::hops`] lends it out as a slice). A commit pushes one message
//! and its hops and allocates nothing once the buffers have grown. Every
//! caller commits each edge once per placement of its consumer: MH,
//! DLS-APN and BU place each task once, and BSA's replay engine rolls the
//! divergent suffix of its commit sequence back before it recommits, which
//! is exactly [`Network::truncate`] to the length the prefix left. There is
//! no edge index: [`crate::Schedule::validate_apn`] sorts the store by
//! edge itself and rejects a second message for one edge.
//!
//! Link tracks accumulate many short messages with holes between them too
//! short for most later ones. [`Network::reindex`] summarizes the link
//! tracks changed since its last call in blocks (see [`Track::reindex`]),
//! so probes that follow skip whole blocks of too-short holes; commits and
//! truncations keep the summaries exact by dropping the stale ones. MH and
//! DLS-APN reindex once per step, before their best-first probes; BSA's
//! migration churn never does.

use dagsched_graph::TaskId;

use crate::timeline::Track;
use crate::topology::{LinkId, ProcId, Topology};

/// Identifier of a committed message within a [`Network`]: its position
/// in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u32);

/// One link traversal of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageHop {
    pub link: LinkId,
    pub start: u64,
    pub finish: u64,
}

/// A committed message: the data of edge `src_task → dst_task` travelling
/// from processor `from` to processor `to`. Its link traversals are in the
/// network's hop arena ([`Network::hops`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub src_task: TaskId,
    pub dst_task: TaskId,
    pub from: ProcId,
    pub to: ProcId,
    /// When the message became available at `from` (producer finish time).
    pub ready: u64,
    /// When the message is fully received at `to`.
    pub arrival: u64,
    /// `hops_start..hops_end` in the arena; never empty (`from != to`).
    hops_start: u32,
    hops_end: u32,
}

/// Link-occupancy state of one machine during APN scheduling.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    tracks: Vec<Track<MsgId>>,
    /// Committed messages in commit order; `messages[i]` has id `i`.
    messages: Vec<Message>,
    /// The hop arena: every message's hops, in commit order.
    hops: Vec<MessageHop>,
    /// Scratch for [`Network::truncate`]: the links whose tracks lose
    /// slots, each listed once (`touched_mark`).
    touched: Vec<LinkId>,
    touched_mark: Vec<bool>,
    /// Links whose track changed since the last [`Network::reindex`], each
    /// listed once (`stale_mark`): reindexing visits only those, not every
    /// link of a large machine.
    stale: Vec<LinkId>,
    stale_mark: Vec<bool>,
}

impl Network {
    /// Fresh, idle network over `topo`.
    pub fn new(topo: Topology) -> Network {
        let links = topo.num_links();
        Network {
            topo,
            tracks: vec![Track::new(); links],
            messages: Vec::new(),
            hops: Vec::new(),
            touched: Vec::new(),
            touched_mark: vec![false; links],
            stale: Vec::new(),
            stale_mark: vec![false; links],
        }
    }

    /// The underlying interconnect.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The occupancy track of one link.
    pub fn link_track(&self, l: LinkId) -> &Track<MsgId> {
        &self.tracks[l.index()]
    }

    /// All committed messages in commit order (`messages()[id.0]` is the
    /// message `id`).
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Number of committed messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether no message is committed.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The link traversals of `msg`, in order.
    pub fn hops(&self, msg: &Message) -> &[MessageHop] {
        &self.hops[msg.hops_start as usize..msg.hops_end as usize]
    }

    /// Every committed message's hops, message after message: the whole
    /// arena, no longer than the live messages' hop counts sum to.
    pub fn all_hops(&self) -> &[MessageHop] {
        &self.hops
    }

    /// The message carrying edge `src → dst`, if committed. A linear scan
    /// of the store, for tests and diagnostics; no scheduler looks a
    /// message up by edge.
    pub fn message_for(&self, src: TaskId, dst: TaskId) -> Option<&Message> {
        self.messages
            .iter()
            .find(|m| m.src_task == src && m.dst_task == dst)
    }

    /// Earliest arrival at `to` of a message of size `size` that becomes
    /// available on `from` at `ready`, along the deterministic shortest
    /// route, **without** reserving anything.
    ///
    /// `from == to` or `size == 0` ⇒ arrival = `ready` (local data).
    pub fn probe_arrival(&self, from: ProcId, to: ProcId, ready: u64, size: u64) -> u64 {
        self.probe_arrival_counted(from, to, ready, size, &mut 0)
    }

    /// [`Network::probe_arrival`] that also adds the number of link slots
    /// and block summaries its hop searches visited to `visited`.
    pub fn probe_arrival_counted(
        &self,
        from: ProcId,
        to: ProcId,
        ready: u64,
        size: u64,
        visited: &mut u64,
    ) -> u64 {
        if from == to || size == 0 {
            return ready;
        }
        let mut t = ready;
        for &link in self.topo.route(from, to) {
            t = self.tracks[link.index()].scan(t, size, visited).0 + size;
        }
        t
    }

    /// Summarize the complete slot blocks of every link track changed since
    /// the last call (see [`Track::reindex`]), so the probes that follow
    /// skip blocks of holes too short for them. Answers are the same with
    /// or without it.
    pub fn reindex(&mut self) {
        for l in self.stale.drain(..) {
            self.stale_mark[l.index()] = false;
            self.tracks[l.index()].reindex();
        }
    }

    /// Add `l` to `list` unless `mark` says it is there already.
    fn mark_once(list: &mut Vec<LinkId>, mark: &mut [bool], l: LinkId) {
        if !std::mem::replace(&mut mark[l.index()], true) {
            list.push(l);
        }
    }

    /// Reserve the route and push the message. Returns its id (`None` for
    /// local or zero-size delivery, which needs no link time and leaves no
    /// record) and the arrival time.
    ///
    /// The edge must have no committed message: a commit never looks for
    /// one to replace, and [`crate::Schedule::validate_apn`] rejects a
    /// second message for one edge.
    pub fn commit(
        &mut self,
        src_task: TaskId,
        dst_task: TaskId,
        from: ProcId,
        to: ProcId,
        ready: u64,
        size: u64,
    ) -> (Option<MsgId>, u64) {
        if from == to || size == 0 {
            return (None, ready);
        }
        let id = MsgId(self.messages.len() as u32);
        let hops_start = self.hops.len() as u32;
        // Same walk as `probe_arrival`, but each hop reserves its slot in
        // the single pass that found it (`Track::reserve_earliest`).
        let mut arrival = ready;
        for &link in self.topo.route(from, to) {
            let s = self.tracks[link.index()].reserve_earliest(arrival, size, id);
            Self::mark_once(&mut self.stale, &mut self.stale_mark, link);
            self.hops.push(MessageHop {
                link,
                start: s,
                finish: s + size,
            });
            arrival = s + size;
        }
        self.messages.push(Message {
            src_task,
            dst_task,
            from,
            to,
            ready,
            arrival,
            hops_start,
            hops_end: self.hops.len() as u32,
        });
        (Some(id), arrival)
    }

    /// Roll back to the first `len` committed messages: pop the rest with
    /// their hops and free their link time. Only the links the popped hops
    /// crossed are compacted, each in one pass, so a rollback retiring
    /// dozens of messages pays O(track) per touched link, not per hop. A
    /// no-op when `len ≥ self.len()`.
    pub fn truncate(&mut self, len: usize) {
        let Some(first) = self.messages.get(len) else {
            return;
        };
        let hops_from = first.hops_start as usize;
        for hop in &self.hops[hops_from..] {
            Self::mark_once(&mut self.touched, &mut self.touched_mark, hop.link);
        }
        // A slot survives iff its message does: ids are commit positions.
        let keep = len as u32;
        for l in self.touched.drain(..) {
            self.touched_mark[l.index()] = false;
            self.tracks[l.index()].retain(|s| s.tag.0 < keep);
            Self::mark_once(&mut self.stale, &mut self.stale_mark, l);
        }
        self.hops.truncate(hops_from);
        self.messages.truncate(len);
    }

    /// Total time-units of link occupation (diagnostic).
    pub fn total_link_busy(&self) -> u64 {
        self.tracks.iter().map(|t| t.busy_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> Network {
        Network::new(Topology::chain(3).unwrap())
    }

    #[test]
    fn local_data_arrives_immediately() {
        let net = chain3();
        assert_eq!(net.probe_arrival(ProcId(1), ProcId(1), 42, 10), 42);
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(2), 42, 0), 42);
    }

    #[test]
    fn empty_network_arrival_is_hops_times_size() {
        let net = chain3();
        // P0 → P2 crosses two links, 10 units each.
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(2), 5, 10), 25);
    }

    #[test]
    fn probe_equals_commit() {
        let mut net = chain3();
        let probed = net.probe_arrival(ProcId(0), ProcId(2), 0, 7);
        let (_, arrival) = net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(2), 0, 7);
        assert_eq!(probed, arrival);
        assert_eq!(arrival, 14);
        let hops = net.hops(net.message_for(TaskId(0), TaskId(1)).unwrap());
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].start, 0);
        assert_eq!(hops[1].start, 7);
    }

    #[test]
    fn contention_delays_second_message() {
        let mut net = chain3();
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 0, 10);
        // Second message wants the same P0–P1 link at t=0 → waits until 10.
        let arrival = net.probe_arrival(ProcId(0), ProcId(1), 0, 10);
        assert_eq!(arrival, 20);
    }

    #[test]
    fn insertion_uses_link_holes() {
        let mut net = chain3();
        // Occupy the P0–P1 link at [20, 30) only.
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 20, 10);
        // A 5-unit message ready at 0 fits in the hole before it.
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(1), 0, 5), 5);
        // A 25-unit message does not; it goes after.
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(1), 0, 25), 55);
    }

    #[test]
    fn truncate_frees_link_time() {
        let mut net = chain3();
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 0, 10);
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(1), 0, 10), 20);
        net.truncate(0);
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(1), 0, 10), 10);
        assert!(net.message_for(TaskId(0), TaskId(1)).is_none());
    }

    #[test]
    fn local_and_zero_size_commits_leave_no_record() {
        // Regression: `commit` used to push a phantom zero-hop message into
        // the store when `from == to` or `size == 0`.
        let mut net = chain3();
        let (id, arrival) = net.commit(TaskId(0), TaskId(1), ProcId(1), ProcId(1), 42, 10);
        assert_eq!(id, None);
        assert_eq!(arrival, 42);
        let (id, arrival) = net.commit(TaskId(2), TaskId(3), ProcId(0), ProcId(2), 7, 0);
        assert_eq!(id, None);
        assert_eq!(arrival, 7);
        assert!(net.is_empty());
        assert!(net.message_for(TaskId(0), TaskId(1)).is_none());
        assert!(net.message_for(TaskId(2), TaskId(3)).is_none());
        assert_eq!(net.total_link_busy(), 0);
    }

    #[test]
    fn truncate_pops_the_tail_and_reuses_its_ids() {
        let mut net = chain3();
        let (a, _) = net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 0, 5);
        net.commit(TaskId(2), TaskId(3), ProcId(1), ProcId(2), 0, 5);
        net.commit(TaskId(4), TaskId(5), ProcId(0), ProcId(2), 0, 5);
        net.truncate(1);
        assert_eq!(net.len(), 1);
        assert_eq!(net.messages()[0].src_task, TaskId(0));
        // The survivor keeps its id and hops; the next commit takes the
        // first popped position.
        assert_eq!(a, Some(MsgId(0)));
        assert_eq!(net.hops(&net.messages()[0]).len(), 1);
        let (c, _) = net.commit(TaskId(6), TaskId(7), ProcId(1), ProcId(2), 20, 5);
        assert_eq!(c, Some(MsgId(1)));
        assert_eq!(net.total_link_busy(), 10);
        // Truncating past the end changes nothing.
        net.truncate(5);
        assert_eq!(net.len(), 2);
    }

    #[test]
    fn truncate_to_zero_resets_everything() {
        let mut net = chain3();
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(2), 0, 5);
        net.truncate(0);
        assert!(net.is_empty());
        assert_eq!(net.total_link_busy(), 0);
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(2), 0, 5), 10);
    }

    #[test]
    fn hops_are_sequential_store_and_forward() {
        let mut net = Network::new(Topology::chain(5).unwrap());
        let (_, arrival) = net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(4), 3, 6);
        let hops = net.hops(net.message_for(TaskId(0), TaskId(1)).unwrap());
        assert_eq!(hops.len(), 4);
        let mut prev = 3;
        for hop in hops {
            assert!(hop.start >= prev);
            assert_eq!(hop.finish, hop.start + 6);
            prev = hop.finish;
        }
        assert_eq!(arrival, prev);
        assert_eq!(arrival, 3 + 4 * 6);
    }
}
