#![forbid(unsafe_code)]
//! # dagsched-ws — the shared-queue execution substrate
//!
//! One client: the order-preserving [`parallel_map_with`] (and
//! [`parallel_map`] on [`worker_count`] workers). Every parallel sweep in
//! the workspace funnels through it — the experiment runner, the RGBOS /
//! RGPOS / figure grids and the adversary matrix. The serve daemon reads
//! its default worker count from [`worker_count`] too.
//!
//! ## Design
//!
//! [`parallel_map_with`] puts every item in one shared queue before the
//! workers start, and no item creates another. That is all the balancing
//! a sweep of independent cells needs: a worker takes the next
//! `(index, item)` pair whenever it is free, so a slow cell never strands
//! work behind it, and a worker that finds the queue empty is done —
//! nothing can appear later.
//!
//! * The queue is a `Mutex` around the indexed input iterator, taken once
//!   per item and released before the item runs. An item is a whole
//!   scheduling cell, orders of magnitude coarser than an uncontended
//!   lock, and the workspace carries no `unsafe`.
//! * Workers take items **highest input index first**, so a caller that
//!   lists its cells from small to large starts the largest ones first and
//!   lets the short ones fill the tail.
//! * A panic in any item stops the pool promptly (poison flag checked
//!   between items) and propagates after every worker has joined, exactly
//!   like `std::thread::scope`.
//!
//! ## Determinism contract
//!
//! The queue makes *who computes what* nondeterministic.
//! [`parallel_map_with`] recovers determinism at the edge: it tags every
//! item with its input index and scatters worker-local results back into
//! input order, so the fold order observed by callers is byte-identical
//! across runs and thread counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Worker-count policy
// ---------------------------------------------------------------------------

/// Parse a `TASKBENCH_THREADS` value. `None` / blank means "no explicit
/// choice" (`Ok(None)` — caller falls back to all cores); `0` and `1` both
/// mean explicit serial (`Ok(Some(1))` — `0` used to fall through to all
/// cores silently, the opposite of what anyone setting it wants); anything
/// unparsable is rejected with a message rather than ignored.
pub fn parse_workers(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let s = raw.trim();
    if s.is_empty() {
        return Ok(None);
    }
    match s.parse::<usize>() {
        Ok(0) | Ok(1) => Ok(Some(1)),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "TASKBENCH_THREADS must be a non-negative integer (0 or 1 = serial), got {raw:?}"
        )),
    }
}

/// Worker count: `TASKBENCH_THREADS` when set (`0` or `1` = explicit
/// serial), otherwise all available cores. Panics with a clear message on
/// an unparsable value — a thread-count knob that silently ignores its
/// input is worse than no knob.
pub fn worker_count() -> usize {
    let var = std::env::var("TASKBENCH_THREADS").ok();
    match parse_workers(var.as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Err(msg) => panic!("{msg}"),
    }
}

// ---------------------------------------------------------------------------
// Order-preserving map
// ---------------------------------------------------------------------------

/// Disarmable guard: if an item panics (unwinds past the guard), poison
/// the pool so every other worker stops taking items.
struct PanicGuard<'a> {
    poisoned: &'a AtomicBool,
    armed: bool,
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.poisoned.store(true, Ordering::Release);
        }
    }
}

/// Apply `f` to every item on `workers` threads, returning results in
/// **input order**. The workers pull `(index, item)` pairs from one shared
/// queue, highest index first, and accumulate `(index, result)` pairs
/// locally; the pairs are scattered back into input positions after the
/// pool joins — so the fold order any caller observes is byte-identical
/// across runs and thread counts. A panic in `f` stops the other workers
/// at their next item and propagates after all of them have joined. One
/// worker (or at most one item) maps inline on the calling thread.
pub fn parallel_map_with<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Every item is queued before the workers start and none creates
    // another, so a worker that finds the queue empty is done.
    let queue = Mutex::new(items.into_iter().enumerate().rev());
    let poisoned = AtomicBool::new(false);
    let (queue, poisoned, f) = (&queue, &poisoned, &f);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while !poisoned.load(Ordering::Acquire) {
                        // The lock is released at the end of this statement,
                        // before the item runs, so no item panic can poison it.
                        let next = queue.lock().expect("queue lock is never poisoned").next();
                        let Some((i, item)) = next else { break };
                        let mut guard = PanicGuard {
                            poisoned,
                            armed: true,
                        };
                        out.push((i, f(item)));
                        guard.armed = false;
                    }
                    // One registry update per worker, never one per item.
                    dagsched_obs::global().add(dagsched_obs::Metric::WsJobs, out.len() as u64);
                    out
                })
            })
            .collect();
        // Join everyone before propagating, so a panic can't leave workers
        // racing the unwinding stack frame.
        let mut outs = Vec::with_capacity(workers);
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(out) => outs.push(out),
                Err(p) => panic_payload = Some(p),
            }
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
        outs
    });
    let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(out[i].is_none(), "index {i} computed twice");
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// [`parallel_map_with`] using [`worker_count`] workers.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(worker_count(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_workers_policy() {
        assert_eq!(parse_workers(None), Ok(None));
        assert_eq!(parse_workers(Some("")), Ok(None));
        assert_eq!(parse_workers(Some("  ")), Ok(None));
        assert_eq!(parse_workers(Some("0")), Ok(Some(1)), "0 = explicit serial");
        assert_eq!(parse_workers(Some("1")), Ok(Some(1)));
        assert_eq!(parse_workers(Some("4")), Ok(Some(4)));
        assert_eq!(parse_workers(Some(" 3 ")), Ok(Some(3)), "whitespace ok");
        assert!(parse_workers(Some("two")).is_err());
        assert!(parse_workers(Some("-1")).is_err());
        assert!(parse_workers(Some("1.5")).is_err());
    }

    #[test]
    fn map_preserves_input_order() {
        let out = parallel_map_with(4, (0..100u64).collect(), |x| x * 2);
        assert_eq!(out, (0..100u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        assert_eq!(
            parallel_map_with(1, items.clone(), |x| x * x),
            parallel_map_with(8, items, |x| x * x)
        );
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert_eq!(
            parallel_map_with(4, Vec::<u32>::new(), |x| x),
            Vec::<u32>::new()
        );
        assert_eq!(parallel_map_with(4, vec![9u32], |x| x), vec![9]);
    }

    #[test]
    #[should_panic(expected = "job 13 exploded")]
    fn panics_propagate_without_hanging() {
        parallel_map_with(4, (0..64u32).collect(), |job| {
            if job == 13 {
                panic!("job 13 exploded");
            }
        });
    }

    #[test]
    #[should_panic(expected = "TASKBENCH_THREADS must be")]
    fn unparsable_thread_count_is_rejected() {
        match parse_workers(Some("garbage")) {
            Err(msg) => panic!("{msg}"),
            Ok(_) => unreachable!(),
        }
    }
}
