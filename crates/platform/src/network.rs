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
//! computation while reserving link time. BSA additionally removes and
//! re-commits messages when it migrates tasks.
//!
//! ## Storage
//!
//! Routes come precomputed from [`Topology::route`] (flat CSR slices), so a
//! probe walks its hops with zero allocation and no per-hop neighbour
//! lookups. Committed messages live in a **slab with a free list**: removal
//! leaves a reusable hole instead of a tombstone, so migration-heavy
//! algorithms (BSA removes and re-commits messages thousands of times) keep
//! the store at its live size. A per-producer **edge index** finds the
//! live message of an edge `src → dst` by scanning only `src`'s outgoing
//! messages, so re-commits and [`Network::remove_edge`] never walk the
//! whole store.

use dagsched_graph::TaskId;

use crate::timeline::Track;
use crate::topology::{LinkId, ProcId, Topology};

/// Identifier of a committed message within a [`Network`].
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
/// from processor `from` to processor `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub src_task: TaskId,
    pub dst_task: TaskId,
    pub from: ProcId,
    pub to: ProcId,
    /// Link traversals in order; empty iff `from == to` or the edge cost is 0.
    pub hops: Vec<MessageHop>,
    /// When the message became available at `from` (producer finish time).
    pub ready: u64,
    /// When the message is fully received at `to`.
    pub arrival: u64,
}

/// Link-occupancy state of one machine during APN scheduling.
///
/// The edge index is a plain vector indexed by task id (grown lazily to
/// the highest producer seen): APN inner loops commit and roll back
/// messages millions of times, and hashing task-pair keys dominated the
/// profile before the journal-driven BSA rewrite.
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    tracks: Vec<Track<MsgId>>,
    /// Message slab: `None` entries are free slots threaded on `free`.
    messages: Vec<Option<Message>>,
    /// LIFO free list of slab indices (holes left by removals).
    free: Vec<u32>,
    /// Edge index: `by_edge[src]` lists `(dst, id)` of src's live outgoing
    /// messages (out-degree is small, so a scan beats hashing).
    by_edge: Vec<Vec<(TaskId, MsgId)>>,
    /// Recycled hop buffers (see [`Network::remove_batch`]): commit/remove
    /// churn in migration loops stops hitting the allocator per message.
    hop_pool: Vec<Vec<MessageHop>>,
    /// Scratch for [`Network::remove_batch`]: which links need compaction.
    dirty_links: Vec<bool>,
}

impl Network {
    /// Fresh, idle network over `topo`.
    pub fn new(topo: Topology) -> Network {
        let links = topo.num_links();
        Network {
            topo,
            tracks: vec![Track::new(); links],
            messages: Vec::new(),
            free: Vec::new(),
            by_edge: Vec::new(),
            hop_pool: Vec::new(),
            dirty_links: Vec::new(),
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

    /// All committed (live) messages.
    pub fn messages(&self) -> impl Iterator<Item = &Message> {
        self.messages.iter().flatten()
    }

    /// The live message carrying edge `src → dst`, if committed.
    pub fn message_for(&self, src: TaskId, dst: TaskId) -> Option<&Message> {
        let id = self.edge_id(src, dst)?;
        self.messages[id.0 as usize].as_ref()
    }

    fn edge_id(&self, src: TaskId, dst: TaskId) -> Option<MsgId> {
        self.by_edge
            .get(src.index())?
            .iter()
            .find(|&&(d, _)| d == dst)
            .map(|&(_, id)| id)
    }

    /// Grow a task-indexed vector so `task` is addressable.
    fn ensure_task_slot<T: Default>(v: &mut Vec<T>, task: TaskId) {
        if v.len() <= task.index() {
            v.resize_with(task.index() + 1, T::default);
        }
    }

    /// Earliest arrival at `to` of a message of size `size` that becomes
    /// available on `from` at `ready`, along the deterministic shortest
    /// route, **without** reserving anything.
    ///
    /// `from == to` or `size == 0` ⇒ arrival = `ready` (local data).
    pub fn probe_arrival(&self, from: ProcId, to: ProcId, ready: u64, size: u64) -> u64 {
        self.walk_route(from, to, ready, size)
    }

    /// Reserve the route and record the message. Returns the id (`None` for
    /// local or zero-size delivery, which needs no link time and leaves no
    /// record) and the arrival time.
    ///
    /// Any previously committed message for the same `(src_task, dst_task)`
    /// edge is removed first (re-commit semantics for migration algorithms)
    /// — including when the re-commit itself is local, so migrating a
    /// consumer back onto its producer's processor retires the old message.
    pub fn commit(
        &mut self,
        src_task: TaskId,
        dst_task: TaskId,
        from: ProcId,
        to: ProcId,
        ready: u64,
        size: u64,
    ) -> (Option<MsgId>, u64) {
        self.remove_edge(src_task, dst_task);
        if from == to || size == 0 {
            return (None, ready);
        }
        let id = match self.free.pop() {
            Some(slot) => MsgId(slot),
            None => {
                self.messages.push(None);
                MsgId(self.messages.len() as u32 - 1)
            }
        };
        let mut hops = self.hop_pool.pop().unwrap_or_default();
        // Same walk as `probe_arrival`, but each hop reserves its slot in
        // the single pass that found it (`Track::reserve_earliest`).
        let mut arrival = ready;
        for &link in self.topo.route(from, to) {
            let s = self.tracks[link.index()].reserve_earliest(arrival, size, id);
            hops.push(MessageHop {
                link,
                start: s,
                finish: s + size,
            });
            arrival = s + size;
        }
        self.messages[id.0 as usize] = Some(Message {
            src_task,
            dst_task,
            from,
            to,
            hops,
            ready,
            arrival,
        });
        Self::ensure_task_slot(&mut self.by_edge, src_task);
        self.by_edge[src_task.index()].push((dst_task, id));
        (Some(id), arrival)
    }

    /// Remove a committed message, freeing its link time.
    pub fn remove(&mut self, id: MsgId) -> Option<Message> {
        let msg = self.messages[id.0 as usize].take()?;
        self.free.push(id.0);
        for hop in &msg.hops {
            self.tracks[hop.link.index()].remove_at(hop.start, id);
        }
        if let Some(row) = self.by_edge.get_mut(msg.src_task.index()) {
            if let Some(pos) = row.iter().position(|&(d, i)| d == msg.dst_task && i == id) {
                row.swap_remove(pos);
            }
        }
        Some(msg)
    }

    /// Remove a batch of committed messages at once. Exactly equivalent to
    /// removing each id in turn, but every affected link track is
    /// compacted in a single pass: a migration rollback retiring dozens of
    /// messages pays O(track) per link instead of O(track) per hop. Hop
    /// buffers are recycled into an internal pool and handed to later
    /// [`Network::commit`]s, so migration churn allocates nothing per
    /// message.
    pub fn remove_batch(&mut self, ids: &[MsgId]) {
        if self.dirty_links.len() < self.tracks.len() {
            self.dirty_links.resize(self.tracks.len(), false);
        }
        let mut any = false;
        for &id in ids {
            let Some(mut msg) = self.messages[id.0 as usize].take() else {
                continue;
            };
            self.free.push(id.0);
            for hop in &msg.hops {
                self.dirty_links[hop.link.index()] = true;
            }
            if let Some(row) = self.by_edge.get_mut(msg.src_task.index()) {
                if let Some(pos) = row.iter().position(|&(d, i)| d == msg.dst_task && i == id) {
                    row.swap_remove(pos);
                }
            }
            msg.hops.clear();
            self.hop_pool.push(std::mem::take(&mut msg.hops));
            any = true;
        }
        if !any {
            return;
        }
        // A track slot is live iff its message still occupies the slab —
        // the ids just removed are exactly the slab entries taken above.
        let messages = &self.messages;
        for (li, dirty) in self.dirty_links.iter_mut().enumerate() {
            if std::mem::take(dirty) {
                self.tracks[li].retain(|s| messages[s.tag.0 as usize].is_some());
            }
        }
    }

    /// Remove the message (if any) carrying edge `src → dst`.
    pub fn remove_edge(&mut self, src: TaskId, dst: TaskId) -> Option<Message> {
        let id = self.edge_id(src, dst)?;
        self.remove(id)
    }

    /// Drop all messages and link reservations. Keeps the slab, track and
    /// index capacity, so a reused `Network` re-fills without reallocating.
    pub fn clear(&mut self) {
        for t in &mut self.tracks {
            t.clear();
        }
        self.messages.clear();
        self.free.clear();
        for row in &mut self.by_edge {
            row.clear();
        }
    }

    /// Total time-units of link occupation (diagnostic).
    pub fn total_link_busy(&self) -> u64 {
        self.tracks.iter().map(|t| t.busy_time()).sum()
    }

    /// Probe walk: the earliest arrival along the precomputed route against
    /// the current link occupancy, reserving nothing. (`commit` runs the
    /// same recurrence through `Track::reserve_earliest`.)
    fn walk_route(&self, from: ProcId, to: ProcId, ready: u64, size: u64) -> u64 {
        if from == to || size == 0 {
            return ready;
        }
        let mut t = ready;
        for &link in self.topo.route(from, to) {
            t = self.tracks[link.index()].earliest_fit(t, size) + size;
        }
        t
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
        let msg = net.message_for(TaskId(0), TaskId(1)).unwrap();
        assert_eq!(msg.hops.len(), 2);
        assert_eq!(msg.hops[0].start, 0);
        assert_eq!(msg.hops[1].start, 7);
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
    fn remove_frees_link_time() {
        let mut net = chain3();
        let (id, _) = net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 0, 10);
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(1), 0, 10), 20);
        let msg = net.remove(id.unwrap()).unwrap();
        assert_eq!(msg.src_task, TaskId(0));
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(1), 0, 10), 10);
        assert!(net.message_for(TaskId(0), TaskId(1)).is_none());
    }

    #[test]
    fn local_and_zero_size_commits_leave_no_record() {
        // Regression: `commit` used to push a phantom zero-hop message into
        // the store (and the edge index) when `from == to` or `size == 0`.
        let mut net = chain3();
        let (id, arrival) = net.commit(TaskId(0), TaskId(1), ProcId(1), ProcId(1), 42, 10);
        assert_eq!(id, None);
        assert_eq!(arrival, 42);
        let (id, arrival) = net.commit(TaskId(2), TaskId(3), ProcId(0), ProcId(2), 7, 0);
        assert_eq!(id, None);
        assert_eq!(arrival, 7);
        assert_eq!(net.messages().count(), 0);
        assert!(net.message_for(TaskId(0), TaskId(1)).is_none());
        assert!(net.message_for(TaskId(2), TaskId(3)).is_none());
        assert_eq!(net.total_link_busy(), 0);
    }

    #[test]
    fn local_recommit_retires_the_previous_message() {
        // A migration that lands the consumer back on the producer's
        // processor must remove the now-obsolete cross-processor message.
        let mut net = chain3();
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 0, 10);
        assert_eq!(net.messages().count(), 1);
        let (id, arrival) = net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(0), 0, 10);
        assert_eq!(id, None);
        assert_eq!(arrival, 0);
        assert_eq!(net.messages().count(), 0);
        assert_eq!(net.total_link_busy(), 0);
    }

    #[test]
    fn remove_batch_matches_sequential_removes() {
        let mk = || {
            let mut net = Network::new(Topology::ring(5).unwrap());
            let mut ids = Vec::new();
            for i in 0..8u32 {
                let (id, _) = net.commit(
                    TaskId(i),
                    TaskId(100 + i),
                    ProcId(i % 5),
                    ProcId((i + 2) % 5),
                    (i as u64) * 3,
                    4,
                );
                ids.push(id.unwrap());
            }
            (net, ids)
        };
        let (mut a, ids) = mk();
        let (mut b, _) = mk();
        let batch = [ids[1], ids[3], ids[4], ids[6]];
        a.remove_batch(&batch);
        for id in batch {
            b.remove(id);
        }
        assert_eq!(a.messages().count(), b.messages().count());
        assert_eq!(a.total_link_busy(), b.total_link_busy());
        for l in 0..a.topology().num_links() {
            assert_eq!(
                a.link_track(LinkId(l as u32)).slots(),
                b.link_track(LinkId(l as u32)).slots(),
                "link {l} diverged"
            );
        }
        // Removed edges are gone from the index; survivors remain.
        assert!(a.message_for(TaskId(1), TaskId(101)).is_none());
        assert!(a.message_for(TaskId(0), TaskId(100)).is_some());
        // Double-removal in a later batch is a no-op.
        a.remove_batch(&batch);
        assert_eq!(a.messages().count(), 4);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut net = chain3();
        let (a, _) = net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 0, 5);
        let (b, _) = net.commit(TaskId(2), TaskId(3), ProcId(1), ProcId(2), 0, 5);
        net.remove(a.unwrap());
        // The freed slot is recycled for the next commit: the store never
        // accumulates tombstones.
        let (c, _) = net.commit(TaskId(4), TaskId(5), ProcId(0), ProcId(1), 20, 5);
        assert_eq!(c, a);
        assert_ne!(c, b);
        assert_eq!(net.messages().count(), 2);
    }

    #[test]
    fn recommit_replaces_previous_message() {
        let mut net = chain3();
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 0, 10);
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(2), 0, 10);
        let msg = net.message_for(TaskId(0), TaskId(1)).unwrap();
        assert_eq!(msg.to, ProcId(2));
        // Old reservation must be gone: the P0–P1 link is free at [0,10)
        // only for the new message itself, which occupies [0,10) there.
        assert_eq!(net.messages().count(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut net = chain3();
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(2), 0, 5);
        net.clear();
        assert_eq!(net.messages().count(), 0);
        assert_eq!(net.total_link_busy(), 0);
        assert_eq!(net.probe_arrival(ProcId(0), ProcId(2), 0, 5), 10);
    }

    #[test]
    fn hops_are_sequential_store_and_forward() {
        let mut net = Network::new(Topology::chain(5).unwrap());
        let (_, arrival) = net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(4), 3, 6);
        let msg = net.message_for(TaskId(0), TaskId(1)).unwrap();
        assert_eq!(msg.hops.len(), 4);
        let mut prev = 3;
        for hop in &msg.hops {
            assert!(hop.start >= prev);
            assert_eq!(hop.finish, hop.start + 6);
            prev = hop.finish;
        }
        assert_eq!(arrival, prev);
        assert_eq!(arrival, 3 + 4 * 6);
    }
}
