//! [`Track`]: non-overlapping occupancy intervals with earliest-slot queries.
//!
//! A `Track<T>` models one serially-reusable resource — a processor executing
//! tasks, or a communication link carrying messages. Intervals are half-open
//! `[start, finish)`; two intervals may touch but never overlap.
//!
//! The two slot-search policies of §3 of the paper are both provided:
//!
//! * **non-insertion** ([`Track::earliest_append`]) — a new occupation may
//!   only go after everything already on the track;
//! * **insertion** ([`Track::earliest_fit`]) — a new occupation may also fill
//!   an idle *hole* between existing occupations, the technique that ISH and
//!   MCP exploit ("insertion is better than non-insertion", §7).
//!
//! ## Block summaries
//!
//! An insertion query walks holes until one is long enough. On a processor
//! timeline the walk is short, but a contended link track carries hundreds
//! of short messages separated by holes shorter than the next message, and
//! a probe would walk them all. [`Track::reindex`] therefore summarizes each
//! complete block of 16 slots by the largest hole before any of its
//! slots; a query skips a block whose largest hole is shorter than the
//! requested duration, to the finish of the block's last slot (finishes
//! are sorted, so that is every earlier slot's finish too).
//!
//! The summaries are a pure cache. Every mutation truncates them at the
//! block it touched (O(1)), [`Track::retain`] drops them, equality
//! compares slots only, and a block without a summary is scanned slot by
//! slot — so answers never depend on when (or whether) `reindex` ran.
//! APN probes reindex the link tracks once per best-first selection step
//! (`Network::reindex`); processor timelines and BSA's replay engine never
//! reindex and keep the plain scan, where keeping summaries current would
//! cost more than it saves.

/// Slots per summarized block.
const BLOCK: usize = 16;

/// One occupancy interval on a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot<T> {
    pub start: u64,
    pub finish: u64,
    pub tag: T,
}

/// A sorted, non-overlapping set of `[start, finish)` occupancy intervals.
#[derive(Debug, Clone, Default)]
pub struct Track<T> {
    slots: Vec<Slot<T>>, // sorted by start
    /// Summaries of the leading complete blocks (see the module docs):
    /// `max_holes[b]` is the largest `slot.start − (previous slot's
    /// finish)` over `slots[b·BLOCK .. (b+1)·BLOCK]`, the first slot's hole
    /// measured from 0.
    max_holes: Vec<u64>,
}

/// Equality of the occupations alone: summaries are a cache.
impl<T: PartialEq> PartialEq for Track<T> {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

impl<T: Eq> Eq for Track<T> {}

impl<T: Copy + PartialEq> Track<T> {
    /// An empty track.
    pub fn new() -> Self {
        Track {
            slots: Vec::new(),
            max_holes: Vec::new(),
        }
    }

    /// Number of occupations.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is scheduled on this track.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// All occupations, sorted by start time.
    pub fn slots(&self) -> &[Slot<T>] {
        &self.slots
    }

    /// Finish time of the last occupation (0 when empty).
    pub fn ready_time(&self) -> u64 {
        self.slots.last().map(|s| s.finish).unwrap_or(0)
    }

    /// Total busy time.
    pub fn busy_time(&self) -> u64 {
        self.slots.iter().map(|s| s.finish - s.start).sum()
    }

    /// Earliest start `≥ earliest` under the **non-insertion** policy:
    /// `max(earliest, ready_time)`.
    pub fn earliest_append(&self, earliest: u64) -> u64 {
        earliest.max(self.ready_time())
    }

    /// Earliest start `≥ earliest` of a `duration`-long interval under the
    /// **insertion** policy: the first idle hole (or the tail) that fits.
    ///
    /// `duration == 0` is permitted and returns the earliest idle instant.
    ///
    /// Slots finishing at or before `earliest` cannot constrain the answer
    /// (their hole ends before the search begins), so the scan starts at the
    /// first slot found by binary search. From there it walks the holes in
    /// order, skipping every summarized block whose largest hole is shorter
    /// than `duration` (see [`Track::reindex`]); without summaries it visits
    /// each slot up to the first hole that fits.
    pub fn earliest_fit(&self, earliest: u64, duration: u64) -> u64 {
        self.scan(earliest, duration, &mut 0).0
    }

    /// Fused [`Track::earliest_fit`] + insert: reserve the earliest
    /// `duration`-long slot at or after `earliest` and return its start.
    /// One scan finds both the start *and* the insertion index, where the
    /// probe-then-insert pair would search the slot list twice — the link
    /// reservation hot path of `Network::commit`.
    ///
    /// `duration` must be non-zero (a zero-length reservation is not an
    /// occupation).
    pub fn reserve_earliest(&mut self, earliest: u64, duration: u64, tag: T) -> u64 {
        debug_assert!(duration > 0, "zero-length reservations are meaningless");
        let (start, idx) = self.scan(earliest, duration, &mut 0);
        self.insert_at(
            idx,
            Slot {
                start,
                finish: start + duration,
                tag,
            },
        );
        start
    }

    /// The insertion-policy search shared by [`Track::earliest_fit`],
    /// [`Track::reserve_earliest`] and the network's counted probes: the
    /// earliest start and the index the new slot takes. Adds each slot and
    /// summary visited to `visited`.
    pub(crate) fn scan(&self, earliest: u64, duration: u64, visited: &mut u64) -> (u64, usize) {
        let mut candidate = earliest;
        // Sorted by start and non-overlapping ⇒ also sorted by finish.
        let mut i = self.slots.partition_point(|s| s.finish <= earliest);
        // Summaries cover a prefix of the slots; past it, scan to the end.
        let indexed = self.max_holes.len() * BLOCK;
        while i < self.slots.len() {
            let mut end = self.slots.len();
            if i < indexed {
                *visited += 1;
                end = (i / BLOCK + 1) * BLOCK;
                // `candidate` is at least every earlier slot's finish, so
                // no hole this query sees in the block exceeds its largest.
                if self.max_holes[i / BLOCK] < duration {
                    candidate = candidate.max(self.slots[end - 1].finish);
                    i = end;
                    continue;
                }
            }
            let from = i;
            for s in &self.slots[from..end] {
                if s.start >= candidate && s.start - candidate >= duration {
                    *visited += (i - from + 1) as u64;
                    return (candidate, i); // fits in the hole before `s`
                }
                if s.finish > candidate {
                    candidate = s.finish;
                }
                i += 1;
            }
            *visited += (end - from) as u64;
        }
        (candidate, i)
    }

    /// Summarize every complete block not yet summarized, so later
    /// [`Track::earliest_fit`] and [`Track::reserve_earliest`] queries can
    /// skip blocks whose holes are all too short. Costs the slots of the
    /// blocks it summarizes; a no-op on an indexed track.
    pub fn reindex(&mut self) {
        let complete = self.slots.len() / BLOCK;
        while self.max_holes.len() < complete {
            let b = self.max_holes.len();
            let mut prev_finish = (b * BLOCK)
                .checked_sub(1)
                .map_or(0, |p| self.slots[p].finish);
            let mut max_hole = 0;
            for s in &self.slots[b * BLOCK..(b + 1) * BLOCK] {
                max_hole = max_hole.max(s.start - prev_finish);
                prev_finish = s.finish;
            }
            self.max_holes.push(max_hole);
        }
    }

    /// Insert `slot` at index `idx`, dropping the summaries it shifts.
    fn insert_at(&mut self, idx: usize, slot: Slot<T>) {
        self.max_holes.truncate(idx / BLOCK);
        self.slots.insert(idx, slot);
    }

    /// Remove the slot at index `idx`, dropping the summaries it shifts.
    fn remove_index(&mut self, idx: usize) -> Slot<T> {
        self.max_holes.truncate(idx / BLOCK);
        self.slots.remove(idx)
    }

    /// Insert an occupation; fails when it would overlap an existing one.
    ///
    /// The error carries no payload on purpose: the only failure mode is
    /// "overlap", and every caller either bubbles it into its own error
    /// type ([`crate::PlaceError::Overlap`]) or treats it as a logic bug.
    #[allow(clippy::result_unit_err)]
    pub fn insert(&mut self, start: u64, finish: u64, tag: T) -> Result<(), ()> {
        debug_assert!(start <= finish, "interval must be well-formed");
        // Tail fast path: append-policy callers (every replayed placement)
        // always extend the track.
        if self.slots.last().is_none_or(|s| s.finish <= start) {
            self.slots.push(Slot { start, finish, tag }); // no summary covers the tail
            return Ok(());
        }
        let idx = self.slots.partition_point(|s| s.start < start);
        // Must not overlap predecessor (finish > start) or successor.
        if idx > 0 && self.slots[idx - 1].finish > start {
            return Err(());
        }
        if idx < self.slots.len() && self.slots[idx].start < finish {
            return Err(());
        }
        self.insert_at(idx, Slot { start, finish, tag });
        Ok(())
    }

    /// Remove the occupation tagged `tag` known to start at `start`:
    /// binary-search by start, then verify the tag among the (at most few,
    /// only zero-length intervals can share a start) slots there — how a
    /// schedule unplaces a task.
    ///
    /// Returns `None` when no slot with that `(start, tag)` exists.
    pub fn remove_at(&mut self, start: u64, tag: T) -> Option<(u64, u64)> {
        let mut idx = self.slots.partition_point(|s| s.start < start);
        while let Some(s) = self.slots.get(idx) {
            if s.start != start {
                return None;
            }
            if s.tag == tag {
                let s = self.remove_index(idx);
                return Some((s.start, s.finish));
            }
            idx += 1;
        }
        None
    }

    /// Keep only the occupations satisfying `f`, in one compaction pass.
    /// Removing a *set* of slots this way costs O(n) total where repeated
    /// [`Track::remove_at`] calls cost O(n) *each* — how a network rollback
    /// (`Network::truncate`) frees a link.
    pub fn retain(&mut self, f: impl FnMut(&Slot<T>) -> bool) {
        self.max_holes.clear();
        self.slots.retain(f);
    }

    /// Idle holes between occupations within `[0, horizon)`.
    pub fn holes(&self, horizon: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cur = 0u64;
        for s in &self.slots {
            if s.start > cur {
                out.push((cur, s.start));
            }
            cur = cur.max(s.finish);
        }
        if horizon > cur {
            out.push((cur, horizon));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track_with(slots: &[(u64, u64)]) -> Track<u32> {
        let mut t = Track::new();
        for (i, &(s, f)) in slots.iter().enumerate() {
            t.insert(s, f, i as u32).unwrap();
        }
        t
    }

    #[test]
    fn append_policy_ignores_holes() {
        let t = track_with(&[(0, 5), (10, 15)]);
        assert_eq!(t.earliest_append(0), 15);
        assert_eq!(t.earliest_append(20), 20);
    }

    #[test]
    fn insertion_policy_finds_first_hole() {
        let t = track_with(&[(0, 5), (10, 15)]);
        assert_eq!(t.earliest_fit(0, 5), 5); // hole [5,10) fits exactly
        assert_eq!(t.earliest_fit(0, 6), 15); // too big → tail
        assert_eq!(t.earliest_fit(6, 4), 6); // partial hole from 6
        assert_eq!(t.earliest_fit(6, 5), 15);
    }

    #[test]
    fn reserve_earliest_matches_fit_then_insert() {
        for (earliest, dur) in [(0u64, 5u64), (0, 6), (6, 4), (6, 5), (3, 1), (20, 2)] {
            let mut a = track_with(&[(0, 5), (10, 15)]);
            let mut b = a.clone();
            let at = a.earliest_fit(earliest, dur);
            a.insert(at, at + dur, 99).unwrap();
            assert_eq!(b.reserve_earliest(earliest, dur, 99), at);
            assert_eq!(a.slots(), b.slots());
        }
    }

    #[test]
    fn insertion_respects_earliest_bound() {
        let t = track_with(&[(10, 20)]);
        assert_eq!(t.earliest_fit(0, 10), 0);
        assert_eq!(t.earliest_fit(5, 10), 20); // [5,15) collides
        assert_eq!(t.earliest_fit(25, 1), 25);
    }

    #[test]
    fn zero_duration_fits_at_boundaries() {
        let t = track_with(&[(0, 5)]);
        // A zero-length interval overlaps nothing: it fits at the very start
        // boundary, and otherwise at the first instant not inside a slot.
        assert_eq!(t.earliest_fit(0, 0), 0);
        assert_eq!(t.earliest_fit(3, 0), 5);
        assert_eq!(t.earliest_fit(7, 0), 7);
    }

    #[test]
    fn insert_rejects_overlap() {
        let mut t = track_with(&[(5, 10)]);
        assert!(t.insert(9, 12, 99).is_err());
        assert!(t.insert(0, 6, 99).is_err());
        assert!(t.insert(6, 9, 99).is_err()); // nested
        assert!(t.insert(0, 5, 99).is_ok()); // touching is fine
        assert!(t.insert(10, 12, 98).is_ok());
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut t = Track::new();
        t.insert(20, 25, 1u32).unwrap();
        t.insert(0, 5, 2).unwrap();
        t.insert(10, 15, 3).unwrap();
        let starts: Vec<u64> = t.slots().iter().map(|s| s.start).collect();
        assert_eq!(starts, vec![0, 10, 20]);
        assert_eq!(t.ready_time(), 25);
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut t = track_with(&[(0, 5), (5, 10)]);
        assert_eq!(t.remove_at(0, 0), Some((0, 5)));
        assert_eq!(t.remove_at(0, 0), None);
        assert!(t.insert(0, 5, 7).is_ok());
    }

    #[test]
    fn remove_at_matches_remove() {
        let mut a = track_with(&[(0, 5), (5, 10), (12, 20), (25, 30)]);
        assert_eq!(a.remove_at(12, 2), Some((12, 20)));
        assert_eq!(a.remove_at(25, 3), Some((25, 30)));
        // Wrong start or wrong tag: untouched.
        assert_eq!(a.remove_at(5, 0), None);
        assert_eq!(a.remove_at(4, 1), None);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn remove_at_disambiguates_zero_length_slots() {
        let mut t = Track::new();
        t.insert(5, 10, 3u32).unwrap();
        t.insert(5, 5, 1).unwrap();
        t.insert(5, 5, 2).unwrap();
        assert_eq!(t.remove_at(5, 3), Some((5, 10)));
        assert_eq!(t.remove_at(5, 2), Some((5, 5)));
        assert_eq!(t.remove_at(5, 1), Some((5, 5)));
        assert!(t.is_empty());
    }

    #[test]
    fn holes_enumeration() {
        let t = track_with(&[(2, 5), (8, 10)]);
        assert_eq!(t.holes(12), vec![(0, 2), (5, 8), (10, 12)]);
        assert_eq!(t.holes(10), vec![(0, 2), (5, 8)]);
    }

    #[test]
    fn busy_time_sums_intervals() {
        let t = track_with(&[(2, 5), (8, 10)]);
        assert_eq!(t.busy_time(), 5);
    }
}
