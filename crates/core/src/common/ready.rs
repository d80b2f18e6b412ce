//! Ready-set tracking for list schedulers.
//!
//! Two structures share the same release bookkeeping:
//!
//! * [`ReadySet`] — unordered candidates with O(1) membership and removal;
//!   the right tool for dynamic-priority algorithms (ETF, DLS, DSC…) that
//!   must rescan the whole ready set every step anyway.
//! * [`ReadyQueue`] — a keyed max-heap with lazy invalidation, serving the
//!   composed schedulers' static lists (HLFET, ISH, MCP): selection is
//!   O(log v) amortized instead of an O(|ready|) scan, while still exposing
//!   the candidate list for secondary scans such as ISH's hole filling.
//!
//! A static list that needs no live candidate set is a sort:
//! [`list_order`] yields the same sequence as a ready list for any key
//! that strictly decreases along every edge (MH, BU, and the UNC cluster
//! timer take it).

use dagsched_graph::{TaskGraph, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const ABSENT: u32 = u32::MAX;

/// The set of *ready* tasks: unscheduled tasks all of whose predecessors
/// have been scheduled. Maintained incrementally in O(e) total over a whole
/// scheduling run.
///
/// Selection order is the algorithm's business: [`ReadySet::iter`] exposes
/// the candidates and [`ReadySet::take`] removes the chosen one. Membership
/// ([`ReadySet::contains`]) and removal are O(1) via a position index.
#[derive(Debug, Clone)]
pub struct ReadySet {
    missing_preds: Vec<u32>,
    ready: Vec<TaskId>,
    /// `pos[n]` = index of `n` in `ready`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl ReadySet {
    /// Initialize from a graph: all entry nodes start ready.
    pub fn new(g: &TaskGraph) -> ReadySet {
        let missing_preds: Vec<u32> = g.tasks().map(|n| g.in_degree(n) as u32).collect();
        let ready: Vec<TaskId> = g.entries().collect();
        let mut pos = vec![ABSENT; g.num_tasks()];
        for (i, &n) in ready.iter().enumerate() {
            pos[n.index()] = i as u32;
        }
        ReadySet {
            missing_preds,
            ready,
            pos,
        }
    }

    /// Candidates currently ready, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.ready.iter().copied()
    }

    /// Number of ready candidates.
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// Whether nothing is ready (true also when everything is scheduled).
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }

    /// Whether `n` is currently ready. O(1).
    #[inline]
    pub fn contains(&self, n: TaskId) -> bool {
        self.pos[n.index()] != ABSENT
    }

    /// Mark `n` scheduled: remove it from the ready set and release any of
    /// its children whose last missing parent it was. Panics if `n` is not
    /// ready (scheduling a non-ready node is a logic error in an algorithm).
    pub fn take(&mut self, g: &TaskGraph, n: TaskId) {
        self.take_notify(g, n, |_| {});
    }

    /// [`ReadySet::take`] that also reports every newly released child —
    /// the single copy of the release bookkeeping, shared with
    /// [`ReadyQueue`] so the pos-index invariants live in one place.
    fn take_notify(&mut self, g: &TaskGraph, n: TaskId, mut on_release: impl FnMut(TaskId)) {
        let idx = self.pos[n.index()];
        assert!(idx != ABSENT, "take: node must be ready");
        self.ready.swap_remove(idx as usize);
        self.pos[n.index()] = ABSENT;
        if let Some(&moved) = self.ready.get(idx as usize) {
            self.pos[moved.index()] = idx;
        }
        for &(child, _) in g.succs(n) {
            self.missing_preds[child.index()] -= 1;
            if self.missing_preds[child.index()] == 0 {
                self.pos[child.index()] = self.ready.len() as u32;
                self.ready.push(child);
                on_release(child);
            }
        }
    }

    /// The ready node maximizing `key` (ties: smallest task id). `None` when
    /// empty.
    pub fn argmax_by_key<K: Ord>(&self, mut key: impl FnMut(TaskId) -> K) -> Option<TaskId> {
        self.ready
            .iter()
            .copied()
            .max_by(|&a, &b| key(a).cmp(&key(b)).then(b.0.cmp(&a.0)))
    }
}

/// The sequence a ready list yields when it takes the max-key ready task
/// each step (ties: smallest id), as one sort by `(Reverse(key), id)`.
///
/// Precondition: `keys` strictly decreases along every edge. Then every
/// unplaced parent of a task outranks it, so the highest remaining task is
/// always ready and the sort equals the [`ReadySet::argmax_by_key`]
/// sequence. b-level, static level, b-level with some edges zeroed and
/// `b-level − t-level` all qualify, because task weights are ≥ 1 at graph
/// formation. Checked over the edges in debug builds.
pub fn list_order<K: Ord + Copy>(g: &TaskGraph, keys: &[K]) -> Vec<TaskId> {
    let mut order: Vec<TaskId> = g.tasks().collect();
    sort_list_order(g, keys, &mut order);
    order
}

/// [`list_order`] into a caller-owned permutation of the tasks (any
/// order: the sort key is total), for callers that re-sort per trial.
pub(crate) fn sort_list_order<K: Ord + Copy>(g: &TaskGraph, keys: &[K], order: &mut [TaskId]) {
    debug_assert!(
        g.edges().all(|e| keys[e.src.index()] > keys[e.dst.index()]),
        "list_order: keys must strictly decrease along every edge"
    );
    order.sort_unstable_by_key(|&n| (Reverse(keys[n.index()]), n));
}

/// A ready set with a fixed priority key per task and O(log v) max
/// selection: a binary max-heap over `(key, Reverse(id))` with lazy
/// invalidation — each task enters the heap exactly once when released, and
/// stale heap tops (tasks already taken) are skipped during
/// [`ReadyQueue::peek_max`]. Ties break toward the smallest task id,
/// matching [`ReadySet::argmax_by_key`].
#[derive(Debug, Clone)]
pub struct ReadyQueue<K: Ord + Copy> {
    inner: ReadySet,
    keys: Vec<K>,
    heap: BinaryHeap<(K, Reverse<u32>)>,
}

impl<K: Ord + Copy> ReadyQueue<K> {
    /// Initialize with one priority key per task (indexed by task id).
    pub fn new(g: &TaskGraph, keys: Vec<K>) -> ReadyQueue<K> {
        assert_eq!(keys.len(), g.num_tasks(), "one key per task");
        let inner = ReadySet::new(g);
        let mut heap = BinaryHeap::with_capacity(g.num_tasks());
        for n in inner.iter() {
            heap.push((keys[n.index()], Reverse(n.0)));
        }
        ReadyQueue { inner, keys, heap }
    }

    /// Candidates currently ready, in no particular order (for secondary
    /// scans; max selection should use [`ReadyQueue::peek_max`]).
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.inner.iter()
    }

    /// The highest-key ready task (ties: smallest id) without removing it;
    /// `None` when nothing is ready. Amortized O(log v): stale entries are
    /// discarded here, and each task contributes at most one.
    pub fn peek_max(&mut self) -> Option<TaskId> {
        while let Some(&(_, Reverse(id))) = self.heap.peek() {
            if self.inner.contains(TaskId(id)) {
                return Some(TaskId(id));
            }
            self.heap.pop();
        }
        None
    }

    /// Mark `n` scheduled, releasing children as in [`ReadySet::take`].
    /// Panics if `n` is not ready.
    pub fn take(&mut self, g: &TaskGraph, n: TaskId) {
        let (keys, heap) = (&self.keys, &mut self.heap);
        self.inner.take_notify(g, n, |child| {
            heap.push((keys[child.index()], Reverse(child.0)));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::GraphBuilder;

    fn diamond() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let n0 = b.add_task(1);
        let n1 = b.add_task(1);
        let n2 = b.add_task(1);
        let n3 = b.add_task(1);
        b.add_edge(n0, n1, 0).unwrap();
        b.add_edge(n0, n2, 0).unwrap();
        b.add_edge(n1, n3, 0).unwrap();
        b.add_edge(n2, n3, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn entries_start_ready() {
        let g = diamond();
        let r = ReadySet::new(&g);
        assert_eq!(r.len(), 1);
        assert!(r.contains(TaskId(0)));
    }

    #[test]
    fn take_releases_children() {
        let g = diamond();
        let mut r = ReadySet::new(&g);
        r.take(&g, TaskId(0));
        assert_eq!(r.len(), 2);
        assert!(r.contains(TaskId(1)) && r.contains(TaskId(2)));
        r.take(&g, TaskId(1));
        assert!(!r.contains(TaskId(3)), "n3 still misses n2");
        r.take(&g, TaskId(2));
        assert!(r.contains(TaskId(3)));
        r.take(&g, TaskId(3));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be ready")]
    fn take_non_ready_panics() {
        let g = diamond();
        let mut r = ReadySet::new(&g);
        r.take(&g, TaskId(3));
    }

    #[test]
    fn argmax_breaks_ties_toward_small_id() {
        let g = diamond();
        let mut r = ReadySet::new(&g);
        r.take(&g, TaskId(0));
        // Both n1 and n2 ready; equal keys → n1.
        assert_eq!(r.argmax_by_key(|_| 7u64), Some(TaskId(1)));
        // Distinct keys → larger wins.
        assert_eq!(r.argmax_by_key(|n| n.0), Some(TaskId(2)));
    }

    #[test]
    fn queue_pops_by_key_with_small_id_ties() {
        let g = diamond();
        // Keys: n1 and n2 tie, n3 highest but gated by precedence.
        let mut q = ReadyQueue::new(&g, vec![5u64, 7, 7, 9]);
        assert_eq!(q.peek_max(), Some(TaskId(0)));
        q.take(&g, TaskId(0));
        assert_eq!(q.peek_max(), Some(TaskId(1)), "tie breaks toward n1");
        q.take(&g, TaskId(1));
        assert_eq!(q.peek_max(), Some(TaskId(2)));
        q.take(&g, TaskId(2));
        assert_eq!(q.peek_max(), Some(TaskId(3)));
        q.take(&g, TaskId(3));
        assert_eq!(q.peek_max(), None);
    }

    #[test]
    fn queue_supports_out_of_order_takes() {
        // ISH takes hole fillers that are not the heap max; stale heap tops
        // must be skipped transparently.
        let g = diamond();
        let mut q = ReadyQueue::new(&g, vec![1u64, 2, 3, 4]);
        q.take(&g, TaskId(0));
        // Max is n2 (key 3), but take n1 first (a "filler").
        assert_eq!(q.peek_max(), Some(TaskId(2)));
        q.take(&g, TaskId(1));
        assert_eq!(q.peek_max(), Some(TaskId(2)));
        q.take(&g, TaskId(2));
        assert_eq!(q.peek_max(), Some(TaskId(3)));
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(3)]);
    }

    #[test]
    fn queue_matches_set_selection_on_random_dags() {
        // Drain both structures with identical keys; the selected order
        // must be identical (same key, same tie-breaking).
        let g = {
            let mut b = GraphBuilder::new();
            let ids: Vec<_> = (0..12).map(|i| b.add_task(1 + i as u64)).collect();
            for i in 0..12usize {
                for j in (i + 1..12).step_by(3) {
                    b.add_edge(ids[i], ids[j], 1).unwrap();
                }
            }
            b.build().unwrap()
        };
        let keys: Vec<u64> = (0..12u64).map(|i| (i * 7) % 5).collect();
        let mut set = ReadySet::new(&g);
        let mut queue = ReadyQueue::new(&g, keys.clone());
        while let Some(expected) = set.argmax_by_key(|n| keys[n.index()]) {
            assert_eq!(queue.peek_max(), Some(expected));
            set.take(&g, expected);
            queue.take(&g, expected);
        }
        assert_eq!(queue.peek_max(), None);
    }
}
