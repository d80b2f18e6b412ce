//! [`Schedule`]: task → (processor, start, finish) mappings with validation.

use dagsched_graph::{TaskGraph, TaskId};

use crate::error::{PlaceError, ValidationError};
use crate::network::{Message, Network};
use crate::timeline::Track;
use crate::topology::ProcId;

/// Where and when one task executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub proc: ProcId,
    pub start: u64,
    pub finish: u64,
}

/// A (possibly partial) schedule of a task graph onto `num_procs` identical
/// processors.
///
/// The structure enforces *physical* feasibility on every mutation: a
/// placement that would overlap existing work on its processor is rejected.
/// *Logical* feasibility — precedence and communication — is checked by
/// [`Schedule::validate`] (contention-free model) or
/// [`Schedule::validate_apn`] (link-contended model), because scheduling
/// algorithms legitimately hold logically-inconsistent intermediate states.
#[derive(Debug, Clone)]
pub struct Schedule {
    num_procs: usize,
    placements: Vec<Option<Placement>>,
    timelines: Vec<Track<TaskId>>,
}

impl Schedule {
    /// Empty schedule for `num_tasks` tasks on `num_procs` processors.
    pub fn new(num_tasks: usize, num_procs: usize) -> Schedule {
        Schedule {
            num_procs,
            placements: vec![None; num_tasks],
            timelines: vec![Track::new(); num_procs],
        }
    }

    /// Number of processors available (not necessarily used).
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Number of task slots.
    pub fn num_tasks(&self) -> usize {
        self.placements.len()
    }

    /// Place `task` on `proc` over `[start, start + duration)`.
    pub fn place(
        &mut self,
        task: TaskId,
        proc: ProcId,
        start: u64,
        duration: u64,
    ) -> Result<(), PlaceError> {
        if task.index() >= self.placements.len() {
            return Err(PlaceError::BadTask { task });
        }
        if proc.index() >= self.num_procs {
            return Err(PlaceError::BadProc { proc });
        }
        if self.placements[task.index()].is_some() {
            return Err(PlaceError::AlreadyPlaced { task });
        }
        let finish = start + duration;
        self.timelines[proc.index()]
            .insert(start, finish, task)
            .map_err(|()| PlaceError::Overlap { task, proc })?;
        self.placements[task.index()] = Some(Placement {
            proc,
            start,
            finish,
        });
        Ok(())
    }

    /// Remove a task's placement (used by iterative-improvement algorithms
    /// such as BSA when migrating tasks between processors).
    pub fn unplace(&mut self, task: TaskId) -> Option<Placement> {
        let p = self.placements[task.index()].take()?;
        self.timelines[p.proc.index()].remove_at(p.start, task);
        Some(p)
    }

    /// Remove a batch of placements at once — equivalent to calling
    /// [`Schedule::unplace`] per task, but each affected timeline is
    /// compacted in one pass (the APN migration journal rolls back dozens
    /// of placements per trial).
    pub fn unplace_batch(&mut self, tasks: impl IntoIterator<Item = TaskId>) {
        let mut dirty = [false; 64];
        let mut dirty_big = Vec::new();
        let mut any = false;
        for task in tasks {
            if let Some(p) = self.placements[task.index()].take() {
                let pi = p.proc.index();
                if pi < dirty.len() {
                    dirty[pi] = true;
                } else if !dirty_big.contains(&pi) {
                    dirty_big.push(pi);
                }
                any = true;
            }
        }
        if !any {
            return;
        }
        let placements = &self.placements;
        let sweep = |t: &mut Track<TaskId>| t.retain(|s| placements[s.tag.index()].is_some());
        for (pi, d) in dirty.iter().enumerate().take(self.timelines.len()) {
            if *d {
                sweep(&mut self.timelines[pi]);
            }
        }
        for &pi in &dirty_big {
            sweep(&mut self.timelines[pi]);
        }
    }

    /// The placement of `task`, if placed.
    #[inline]
    pub fn placement(&self, task: TaskId) -> Option<Placement> {
        self.placements.get(task.index()).copied().flatten()
    }

    /// Processor of `task` (`None` when unplaced).
    pub fn proc_of(&self, task: TaskId) -> Option<ProcId> {
        self.placement(task).map(|p| p.proc)
    }

    /// Start time of `task`.
    pub fn start_of(&self, task: TaskId) -> Option<u64> {
        self.placement(task).map(|p| p.start)
    }

    /// Finish time of `task`.
    pub fn finish_of(&self, task: TaskId) -> Option<u64> {
        self.placement(task).map(|p| p.finish)
    }

    /// Whether every task is placed.
    pub fn is_complete(&self) -> bool {
        self.placements.iter().all(|p| p.is_some())
    }

    /// The occupancy track of one processor.
    pub fn timeline(&self, proc: ProcId) -> &Track<TaskId> {
        &self.timelines[proc.index()]
    }

    /// Tasks on `proc` in execution order.
    pub fn tasks_on(&self, proc: ProcId) -> Vec<TaskId> {
        self.timelines[proc.index()]
            .slots()
            .iter()
            .map(|s| s.tag)
            .collect()
    }

    /// Schedule length: the latest finish time over all placed tasks
    /// (0 for an empty schedule).
    pub fn makespan(&self) -> u64 {
        self.placements
            .iter()
            .flatten()
            .map(|p| p.finish)
            .max()
            .unwrap_or(0)
    }

    /// Number of processors that execute at least one task — the paper's
    /// "number of processors used" measure (§6.4.2).
    pub fn procs_used(&self) -> usize {
        self.timelines.iter().filter(|t| !t.is_empty()).count()
    }

    /// Ids of the processors that execute at least one task, ascending.
    pub fn used_procs(&self) -> Vec<ProcId> {
        (0..self.num_procs as u32)
            .map(ProcId)
            .filter(|p| !self.timelines[p.index()].is_empty())
            .collect()
    }

    /// Renumber processors so the used ones become `P0..Pk` (preserving
    /// relative order) and drop empty ones. UNC algorithms schedule onto a
    /// virtually unlimited machine; their reported schedules are compacted.
    pub fn compact_procs(&self) -> Schedule {
        let used = self.used_procs();
        let mut map = vec![u32::MAX; self.num_procs];
        for (new, old) in used.iter().enumerate() {
            map[old.index()] = new as u32;
        }
        let mut out = Schedule::new(self.num_tasks(), used.len().max(1));
        for (i, p) in self.placements.iter().enumerate() {
            if let Some(p) = p {
                out.place(
                    TaskId(i as u32),
                    ProcId(map[p.proc.index()]),
                    p.start,
                    p.finish - p.start,
                )
                .expect("compacted placements cannot collide");
            }
        }
        out
    }

    /// Validate under the **contention-free** model used by the BNP and UNC
    /// classes: a cross-processor edge `u → v` delays `v` by `c(u, v)` after
    /// `u`'s finish; a same-processor edge by 0.
    pub fn validate(&self, g: &TaskGraph) -> Result<(), ValidationError> {
        self.validate_structure(g)?;
        for e in g.edges() {
            let pu = self.placements[e.src.index()].unwrap();
            let pv = self.placements[e.dst.index()].unwrap();
            let ready = if pu.proc == pv.proc {
                pu.finish
            } else {
                pu.finish + e.cost
            };
            if pv.start < ready {
                return Err(ValidationError::Precedence {
                    src: e.src,
                    dst: e.dst,
                    data_ready: ready,
                    actual_start: pv.start,
                });
            }
        }
        Ok(())
    }

    /// Validate under the **link-contended APN** model: every cross-processor
    /// edge with non-zero cost must have exactly one committed message in
    /// `net` whose hops form a link path from producer to consumer, hold
    /// each link for exactly `c` time units in sequence, start no earlier
    /// than the producer's finish and arrive no later than the consumer's
    /// start. Every other message is stray: a second message for one edge,
    /// or one for an absent, co-located or zero-cost edge. Additionally no
    /// two messages may overlap on any link.
    pub fn validate_apn(&self, g: &TaskGraph, net: &Network) -> Result<(), ValidationError> {
        self.validate_structure(g)?;
        // The store sorted by edge, walked in step with `g.edges()` (which
        // are sorted by `(src, dst)` too): a message sorted before the next
        // edge that needs one, or left over at the end, is stray.
        let mut msgs: Vec<&Message> = net.messages().iter().collect();
        msgs.sort_by_key(|m| (m.src_task, m.dst_task));
        let mut msgs = msgs.into_iter().peekable();
        let stray = |m: &Message| ValidationError::StrayMessage {
            src: m.src_task,
            dst: m.dst_task,
        };
        for e in g.edges() {
            let pu = self.placements[e.src.index()].unwrap();
            let pv = self.placements[e.dst.index()].unwrap();
            if pu.proc == pv.proc || e.cost == 0 {
                let ready = pu.finish;
                if pv.start < ready {
                    return Err(ValidationError::Precedence {
                        src: e.src,
                        dst: e.dst,
                        data_ready: ready,
                        actual_start: pv.start,
                    });
                }
                continue;
            }
            let edge = (e.src, e.dst);
            if let Some(m) = msgs.next_if(|m| (m.src_task, m.dst_task) < edge) {
                return Err(stray(m));
            }
            let msg = msgs.next_if(|m| (m.src_task, m.dst_task) == edge).ok_or(
                ValidationError::MissingMessage {
                    src: e.src,
                    dst: e.dst,
                },
            )?;
            let hops = net.hops(msg);
            // Hop chain must trace a link path proc(u) → proc(v).
            if hops.is_empty() {
                return Err(ValidationError::BadRoute {
                    src: e.src,
                    dst: e.dst,
                });
            }
            let mut cur = pu.proc;
            for hop in hops {
                let (a, b) = net.topology().link_ends(hop.link);
                cur = if a == cur {
                    b
                } else if b == cur {
                    a
                } else {
                    return Err(ValidationError::BadRoute {
                        src: e.src,
                        dst: e.dst,
                    });
                };
            }
            if cur != pv.proc {
                return Err(ValidationError::BadRoute {
                    src: e.src,
                    dst: e.dst,
                });
            }
            // Timing: store-and-forward with constant message size.
            let mut prev_finish = pu.finish;
            for hop in hops {
                if hop.start < prev_finish || hop.finish != hop.start + e.cost {
                    return Err(ValidationError::MessageTiming {
                        src: e.src,
                        dst: e.dst,
                    });
                }
                prev_finish = hop.finish;
            }
            if pv.start < prev_finish {
                return Err(ValidationError::Precedence {
                    src: e.src,
                    dst: e.dst,
                    data_ready: prev_finish,
                    actual_start: pv.start,
                });
            }
        }
        if let Some(m) = msgs.next() {
            return Err(stray(m));
        }
        // Global link non-overlap, rebuilt independently of Network's tracks.
        let mut per_link: Vec<Vec<(u64, u64)>> = vec![Vec::new(); net.topology().num_links()];
        for hop in net.all_hops() {
            per_link[hop.link.index()].push((hop.start, hop.finish));
        }
        for (li, occ) in per_link.iter_mut().enumerate() {
            occ.sort_unstable();
            for w in occ.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(ValidationError::LinkOverlap {
                        link: crate::topology::LinkId(li as u32),
                    });
                }
            }
        }
        Ok(())
    }

    /// Structural checks shared by both models: completeness, durations,
    /// processor ranges, per-processor non-overlap.
    fn validate_structure(&self, g: &TaskGraph) -> Result<(), ValidationError> {
        if self.placements.len() != g.num_tasks() {
            // Treat a size mismatch as the first missing task.
            return Err(ValidationError::Unplaced {
                task: TaskId(self.placements.len() as u32),
            });
        }
        for n in g.tasks() {
            let p = self.placements[n.index()].ok_or(ValidationError::Unplaced { task: n })?;
            if p.proc.index() >= self.num_procs {
                return Err(ValidationError::BadProcessor {
                    task: n,
                    proc: p.proc,
                });
            }
            let dur = p.finish - p.start;
            if dur != g.weight(n) {
                return Err(ValidationError::WrongDuration {
                    task: n,
                    expected: g.weight(n),
                    actual: dur,
                });
            }
        }
        // Independent overlap check (do not trust the incremental tracks).
        let mut by_proc: Vec<Vec<(u64, u64, TaskId)>> = vec![Vec::new(); self.num_procs];
        for n in g.tasks() {
            let p = self.placements[n.index()].unwrap();
            by_proc[p.proc.index()].push((p.start, p.finish, n));
        }
        for (pi, occ) in by_proc.iter_mut().enumerate() {
            occ.sort_unstable();
            for w in occ.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(ValidationError::ProcOverlap {
                        proc: ProcId(pi as u32),
                        a: w[0].2,
                        b: w[1].2,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_graph::GraphBuilder;

    fn two_task_graph() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_task(5);
        let c = b.add_task(3);
        b.add_edge(a, c, 4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn place_and_accessors() {
        let g = two_task_graph();
        let mut s = Schedule::new(g.num_tasks(), 2);
        s.place(TaskId(0), ProcId(0), 0, 5).unwrap();
        s.place(TaskId(1), ProcId(1), 9, 3).unwrap();
        assert_eq!(s.proc_of(TaskId(0)), Some(ProcId(0)));
        assert_eq!(s.finish_of(TaskId(0)), Some(5));
        assert_eq!(s.start_of(TaskId(1)), Some(9));
        assert_eq!(s.makespan(), 12);
        assert_eq!(s.procs_used(), 2);
        assert!(s.is_complete());
    }

    #[test]
    fn place_rejects_double_placement_and_overlap() {
        let g = two_task_graph();
        let mut s = Schedule::new(g.num_tasks(), 1);
        s.place(TaskId(0), ProcId(0), 0, 5).unwrap();
        assert_eq!(
            s.place(TaskId(0), ProcId(0), 10, 5),
            Err(PlaceError::AlreadyPlaced { task: TaskId(0) })
        );
        assert_eq!(
            s.place(TaskId(1), ProcId(0), 3, 3),
            Err(PlaceError::Overlap {
                task: TaskId(1),
                proc: ProcId(0)
            })
        );
        assert_eq!(
            s.place(TaskId(1), ProcId(3), 0, 3),
            Err(PlaceError::BadProc { proc: ProcId(3) })
        );
    }

    #[test]
    fn unplace_frees_slot() {
        let g = two_task_graph();
        let mut s = Schedule::new(g.num_tasks(), 1);
        s.place(TaskId(0), ProcId(0), 0, 5).unwrap();
        let p = s.unplace(TaskId(0)).unwrap();
        assert_eq!(p.finish, 5);
        assert!(!s.is_complete());
        s.place(TaskId(1), ProcId(0), 0, 3).unwrap(); // slot reusable
    }

    #[test]
    fn unplace_batch_matches_sequential_unplace() {
        let mk = || {
            let mut s = Schedule::new(6, 3);
            for i in 0..6u32 {
                s.place(TaskId(i), ProcId(i % 3), (i as u64) * 4, 3)
                    .unwrap();
            }
            s
        };
        let mut a = mk();
        let mut b = mk();
        let batch = [TaskId(0), TaskId(2), TaskId(5)];
        a.unplace_batch(batch);
        for t in batch {
            b.unplace(t);
        }
        for pi in 0..3u32 {
            assert_eq!(
                a.timeline(ProcId(pi)).slots(),
                b.timeline(ProcId(pi)).slots()
            );
        }
        for i in 0..6u32 {
            assert_eq!(a.placement(TaskId(i)), b.placement(TaskId(i)));
        }
        // Unplacing already-absent tasks is a no-op.
        a.unplace_batch(batch);
        assert_eq!(a.makespan(), b.makespan());
    }

    #[test]
    fn validate_catches_comm_violation() {
        let g = two_task_graph();
        // Cross-processor: child must wait 5 + 4 = 9.
        let mut s = Schedule::new(g.num_tasks(), 2);
        s.place(TaskId(0), ProcId(0), 0, 5).unwrap();
        s.place(TaskId(1), ProcId(1), 8, 3).unwrap();
        match s.validate(&g) {
            Err(ValidationError::Precedence {
                data_ready: 9,
                actual_start: 8,
                ..
            }) => {}
            other => panic!("expected precedence violation, got {other:?}"),
        }
    }

    #[test]
    fn validate_allows_same_proc_back_to_back() {
        let g = two_task_graph();
        let mut s = Schedule::new(g.num_tasks(), 1);
        s.place(TaskId(0), ProcId(0), 0, 5).unwrap();
        s.place(TaskId(1), ProcId(0), 5, 3).unwrap(); // no comm on same proc
        assert!(s.validate(&g).is_ok());
    }

    #[test]
    fn validate_catches_wrong_duration() {
        let g = two_task_graph();
        let mut s = Schedule::new(g.num_tasks(), 2);
        s.place(TaskId(0), ProcId(0), 0, 6).unwrap(); // should be 5
        s.place(TaskId(1), ProcId(1), 20, 3).unwrap();
        assert!(matches!(
            s.validate(&g),
            Err(ValidationError::WrongDuration {
                expected: 5,
                actual: 6,
                ..
            })
        ));
    }

    #[test]
    fn validate_catches_unplaced() {
        let g = two_task_graph();
        let mut s = Schedule::new(g.num_tasks(), 2);
        s.place(TaskId(0), ProcId(0), 0, 5).unwrap();
        assert!(matches!(
            s.validate(&g),
            Err(ValidationError::Unplaced { .. })
        ));
    }

    /// `a(5) →(4) b(3)` and `a →(0) c(2)` on a 3-processor chain: `a` on
    /// P0, `b` on P1 behind its one-hop message, `c` on P2 (a zero-cost
    /// edge needs no message). Valid as built; `b_proc` moves `b`.
    fn apn_fixture(b_proc: ProcId) -> (TaskGraph, Schedule, Network) {
        let mut gb = GraphBuilder::new();
        let a = gb.add_task(5);
        let b = gb.add_task(3);
        let c = gb.add_task(2);
        gb.add_edge(a, b, 4).unwrap();
        gb.add_edge(a, c, 0).unwrap();
        let g = gb.build().unwrap();
        let net = Network::new(crate::Topology::chain(3).unwrap());
        let mut s = Schedule::new(g.num_tasks(), 3);
        s.place(a, ProcId(0), 0, 5).unwrap();
        s.place(b, b_proc, 13, 3).unwrap();
        s.place(c, ProcId(2), 5, 2).unwrap();
        (g, s, net)
    }

    fn assert_stray(r: Result<(), ValidationError>, src: u32, dst: u32) {
        assert_eq!(
            r,
            Err(ValidationError::StrayMessage {
                src: TaskId(src),
                dst: TaskId(dst),
            })
        );
    }

    #[test]
    fn validate_apn_rejects_a_second_message_for_one_edge() {
        let (g, s, mut net) = apn_fixture(ProcId(1));
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 5, 4);
        assert_eq!(s.validate_apn(&g, &net), Ok(()));
        // Both arrive by b's start (9 and 13): only the duplicate is wrong.
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 5, 4);
        assert_stray(s.validate_apn(&g, &net), 0, 1);
    }

    #[test]
    fn validate_apn_rejects_a_message_for_an_absent_edge() {
        let (g, s, mut net) = apn_fixture(ProcId(1));
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 5, 4);
        net.commit(TaskId(2), TaskId(1), ProcId(2), ProcId(1), 7, 2);
        assert_stray(s.validate_apn(&g, &net), 2, 1);
    }

    #[test]
    fn validate_apn_rejects_a_message_for_a_co_located_edge() {
        let (g, s, mut net) = apn_fixture(ProcId(0));
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 5, 4);
        assert_stray(s.validate_apn(&g, &net), 0, 1);
    }

    #[test]
    fn validate_apn_rejects_a_message_for_a_zero_cost_edge() {
        let (g, s, mut net) = apn_fixture(ProcId(1));
        net.commit(TaskId(0), TaskId(1), ProcId(0), ProcId(1), 5, 4);
        net.commit(TaskId(0), TaskId(2), ProcId(0), ProcId(2), 5, 3);
        assert_stray(s.validate_apn(&g, &net), 0, 2);
    }

    #[test]
    fn compaction_renumbers_used_procs() {
        let g = two_task_graph();
        let mut s = Schedule::new(g.num_tasks(), 10);
        s.place(TaskId(0), ProcId(3), 0, 5).unwrap();
        s.place(TaskId(1), ProcId(7), 9, 3).unwrap();
        let c = s.compact_procs();
        assert_eq!(c.num_procs(), 2);
        assert_eq!(c.proc_of(TaskId(0)), Some(ProcId(0)));
        assert_eq!(c.proc_of(TaskId(1)), Some(ProcId(1)));
        assert_eq!(c.makespan(), s.makespan());
        assert!(c.validate(&g).is_ok());
    }

    #[test]
    fn tasks_on_reports_execution_order() {
        let g = {
            let mut b = GraphBuilder::new();
            b.add_task(2);
            b.add_task(2);
            b.add_task(2);
            b.build().unwrap()
        };
        let mut s = Schedule::new(g.num_tasks(), 1);
        s.place(TaskId(2), ProcId(0), 0, 2).unwrap();
        s.place(TaskId(0), ProcId(0), 4, 2).unwrap();
        s.place(TaskId(1), ProcId(0), 2, 2).unwrap();
        assert_eq!(s.tasks_on(ProcId(0)), vec![TaskId(2), TaskId(1), TaskId(0)]);
    }
}
