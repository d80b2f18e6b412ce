#![forbid(unsafe_code)]
//! # dagsched-ws — the work-stealing execution substrate
//!
//! One client: the order-preserving [`parallel_map_with`] (and
//! [`parallel_map`] on [`worker_count`] workers). Every parallel sweep in
//! the workspace funnels through it — the experiment runner, the RGBOS /
//! RGPOS / figure grids and the adversary matrix. The serve daemon reads
//! its default worker count from [`worker_count`] too.
//!
//! ## Design
//!
//! The runtime is the classic work-stealing shape — per-worker deques with
//! LIFO owner pop and FIFO steal (Chase–Lev discipline: the owner works on
//! its freshest jobs while thieves take the oldest ones) — built on `std`
//! only:
//!
//! * [`WsDeque`] — one double-ended job queue per worker. The owner pushes
//!   and pops at the bottom; thieves steal from the top. Rather than the
//!   unsafe atomic bottom/top ring buffer of the original Chase–Lev
//!   structure, the buffer is lock-guarded with an **atomic length hint**:
//!   thieves scan victims and skip empty deques without touching any lock,
//!   so the only contended path is a genuine steal — rare by construction,
//!   and a map item (a whole scheduling cell) is orders of magnitude
//!   coarser than a lock handoff. The safe fallback is deliberate: this
//!   workspace carries no `unsafe`, and nothing here is hot enough to
//!   warrant it.
//! * [`parallel_map_with`] deals every item to the worker deques before
//!   the workers start, and no item creates another. A worker drains its
//!   own deque, then steals from **randomized victims** (per-worker
//!   xorshift, no global coordination); once its deque and one full victim
//!   sweep are empty, nothing can appear later, so it exits.
//!   A panic in any item stops the pool promptly (poison flag checked
//!   between items) and propagates after the scope joins, exactly like
//!   `std::thread::scope`.
//!
//! ## Determinism contract
//!
//! Work stealing makes *who computes what* nondeterministic.
//! [`parallel_map_with`] recovers determinism at the edge: it tags every
//! item with its input index and scatters worker-local results back into
//! input order, so the fold order observed by callers is byte-identical
//! across runs and thread counts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
// The deque
// ---------------------------------------------------------------------------

/// A work-stealing double-ended job queue: LIFO [`pop`](WsDeque::pop) for
/// the owning worker, FIFO [`steal`](WsDeque::steal) for thieves.
///
/// The buffer is a lock-guarded `VecDeque` with an atomic length mirror so
/// thieves can dismiss empty victims lock-free; see the crate docs for why
/// the lock-guarded fallback is preferred over an unsafe atomic ring here.
/// All three operations are safe to call from any thread — "owner" and
/// "thief" are roles, not enforced identities (the property tests exploit
/// this to drive arbitrary interleavings).
#[derive(Debug, Default)]
pub struct WsDeque<T> {
    buf: Mutex<VecDeque<T>>,
    len: AtomicUsize,
}

impl<T> WsDeque<T> {
    pub fn new() -> WsDeque<T> {
        WsDeque {
            buf: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of queued jobs (a racy snapshot under concurrency).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the deque currently looks empty (racy snapshot; used by
    /// thieves to skip victims without locking).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Owner push: enqueue at the bottom.
    pub fn push(&self, item: T) {
        let mut buf = self.buf.lock().unwrap();
        buf.push_back(item);
        self.len.store(buf.len(), Ordering::Release);
    }

    /// Owner pop: newest job first (LIFO — depth-first on own work).
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut buf = self.buf.lock().unwrap();
        let item = buf.pop_back();
        self.len.store(buf.len(), Ordering::Release);
        item
    }

    /// Thief steal: oldest job first (FIFO — coarsest work migrates).
    pub fn steal(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut buf = self.buf.lock().unwrap();
        let item = buf.pop_front();
        self.len.store(buf.len(), Ordering::Release);
        item
    }
}

// ---------------------------------------------------------------------------
// The pool
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

/// Worker-local runtime tallies. Kept as plain integers on the hot loop and
/// flushed to the [`dagsched_obs`] registry once at pool teardown — the
/// steal path never touches a shared cache line for bookkeeping.
#[derive(Default)]
struct WorkerTallies {
    jobs: u64,
    steal_attempts: u64,
    steal_hits: u64,
}

impl WorkerTallies {
    fn flush(&self) {
        use dagsched_obs::Metric;
        let reg = dagsched_obs::global();
        reg.add(Metric::WsJobs, self.jobs);
        reg.add(Metric::WsStealAttempts, self.steal_attempts);
        reg.add(Metric::WsStealHits, self.steal_hits);
    }
}

/// Cheap per-worker xorshift for randomized victim selection; seeded from
/// the worker index so runs are reproducible in the aggregate (the *result*
/// never depends on who steals what — see the crate docs).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

// ---------------------------------------------------------------------------
// Order-preserving map
// ---------------------------------------------------------------------------

/// Apply `f` to every item on `workers` work-stealing threads, returning
/// results in **input order**. Items are moved into the worker deques up
/// front (no per-item locking handshake on the hot loop); each worker
/// accumulates `(index, result)` pairs locally, and the pairs are scattered
/// back into input positions after the pool joins — so the fold order any
/// caller observes is byte-identical across runs and thread counts. A panic
/// in `f` stops the other workers at their next item and propagates after
/// all of them have joined. One worker (or at most one item) maps inline
/// on the calling thread.
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
    // Every item is dealt before the workers start and none creates
    // another, so a worker whose own deque and one full victim sweep both
    // come up empty is done: no work can appear later.
    let deques: Vec<WsDeque<(usize, T)>> = (0..workers).map(|_| WsDeque::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].push((i, item));
    }
    let poisoned = AtomicBool::new(false);
    let (deques, poisoned, f) = (&deques, &poisoned, &f);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((w as u64 + 1) << 17);
                    let mut tallies = WorkerTallies::default();
                    while !poisoned.load(Ordering::Acquire) {
                        let mut stole = false;
                        let job = deques[w].pop().or_else(|| {
                            // One randomized sweep over the other deques.
                            tallies.steal_attempts += 1;
                            let start = (xorshift(&mut rng) as usize) % workers;
                            let found = (0..workers)
                                .map(|i| (start + i) % workers)
                                .filter(|&v| v != w)
                                .find_map(|v| deques[v].steal());
                            stole = found.is_some();
                            found
                        });
                        let Some((i, item)) = job else { break };
                        tallies.jobs += 1;
                        if stole {
                            tallies.steal_hits += 1;
                        }
                        let mut guard = PanicGuard {
                            poisoned,
                            armed: true,
                        };
                        out.push((i, f(item)));
                        guard.armed = false;
                    }
                    tallies.flush();
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
    fn deque_is_lifo_for_owner_fifo_for_thief() {
        let d = WsDeque::new();
        for i in 0..4 {
            d.push(i);
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.pop(), Some(3), "owner pops newest");
        assert_eq!(d.steal(), Some(0), "thief steals oldest");
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.steal(), Some(1));
        assert!(d.is_empty());
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
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
